package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/nat"
)

// Switch is an in-memory datagram network. Endpoints attach with Attach (a
// public peer) or AttachNAT (a peer behind a simulated NAT device built from
// internal/nat). Delivery is asynchronous with an optional fixed latency, so
// node-level code experiences the same reordering-free UDP-like semantics as
// the discrete-event simulator.
type Switch struct {
	latency time.Duration
	// deliveries recycles in-flight datagrams (see delivery).
	deliveries sync.Pool

	mu     sync.Mutex
	ports  map[ident.Endpoint]*MemTransport // by receive endpoint (private for natted)
	nats   map[ident.IP]*natAttachment      // by NAT public IP
	nextIP uint32
	closed bool
}

type natAttachment struct {
	dev *nat.Device
	tr  *MemTransport
}

// NewSwitch creates an empty switch with the given one-way delivery latency
// (zero is allowed: Send then queues the datagram at the receiver itself, and
// the receiver still sees it asynchronously).
func NewSwitch(latency time.Duration) *Switch {
	return &Switch{
		latency:    latency,
		deliveries: sync.Pool{New: newDelivery},
		ports:      make(map[ident.Endpoint]*MemTransport),
		nats:       make(map[ident.IP]*natAttachment),
		nextIP:     0x0a000001,
	}
}

// errClosed is returned by operations on closed transports.
var errClosed = errors.New("transport: closed")

// MemTransport is one attachment to a Switch.
type MemTransport struct {
	receiver
	sw    *Switch
	local ident.Endpoint
	dev   *nat.Device // nil for public attachments
	start time.Time

	mu     sync.Mutex
	closed bool
	// inbox is the attachment's socket buffer once a handler is set (nil
	// before): deliveries wait here for the reading goroutine.
	inbox chan *delivery
}

var _ Handled = (*MemTransport)(nil)

// delivery is one datagram in flight through the switch. Deliveries are
// pooled together with their payload buffer and their bound run function, so
// a Send to an attachment with a handler allocates nothing: the handler
// borrows buf, and the latency timer needs no closure.
type delivery struct {
	sw       *Switch
	from, to ident.Endpoint
	n        int
	buf      [MaxDatagram]byte
	run      func() // d.deliver, bound once
}

func newDelivery() any {
	d := new(delivery)
	d.run = d.deliver
	return d
}

// Attach adds a public endpoint to the switch and returns its transport.
func (s *Switch) Attach() *MemTransport {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := ident.Endpoint{IP: ident.IP(s.nextIP), Port: 9000}
	s.nextIP++
	t := &MemTransport{sw: s, local: ep, start: time.Now(), receiver: newReceiver()}
	s.ports[ep] = t
	return t
}

// AttachSibling adds a second public endpoint on the same IP as t but a
// different port. Introducer-style services use it to test port-sensitive
// NAT filtering (RC vs PRC). It panics if t is natted or the port is taken.
func (s *Switch) AttachSibling(t *MemTransport, port uint16) *MemTransport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.dev != nil {
		panic("transport: AttachSibling on a natted attachment")
	}
	ep := ident.Endpoint{IP: t.local.IP, Port: port}
	if _, taken := s.ports[ep]; taken {
		panic(fmt.Sprintf("transport: sibling endpoint %v already attached", ep))
	}
	sib := &MemTransport{sw: s, local: ep, start: time.Now(), receiver: newReceiver()}
	s.ports[ep] = sib
	return sib
}

// AttachNAT adds an endpoint behind a fresh NAT device of the given class and
// returns its transport together with the advertised public endpoint (the
// mapping a join handshake with an introducer would have allocated).
func (s *Switch) AttachNAT(class ident.NATClass, ruleTTL time.Duration) (*MemTransport, ident.Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	priv := ident.Endpoint{IP: ident.IP(s.nextIP), Port: 9000}
	s.nextIP++
	pubIP := ident.IP(s.nextIP)
	s.nextIP++
	dev := nat.NewDevice(class, pubIP, ruleTTL.Milliseconds())
	t := &MemTransport{sw: s, local: priv, dev: dev, start: time.Now(), receiver: newReceiver()}
	s.ports[priv] = t
	s.nats[pubIP] = &natAttachment{dev: dev, tr: t}
	// Join handshake: allocate the advertised mapping toward a well-known
	// introducer endpoint.
	adv := dev.Outbound(0, priv, ident.Endpoint{IP: 0x7f000001, Port: 3478})
	return t, adv
}

// OpenHole installs mutual NAT rules between two attachments, standing in
// for an introducer-mediated join handshake (the analogue of the simulator's
// InstallHole).
func (s *Switch) OpenHole(a, b *MemTransport, aAdv, bAdv ident.Endpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.dev != nil {
		a.dev.Outbound(time.Since(a.start).Milliseconds(), a.local, bAdv)
	}
	if b.dev != nil {
		b.dev.Outbound(time.Since(b.start).Milliseconds(), b.local, aAdv)
	}
}

// LocalAddr implements Transport.
func (t *MemTransport) LocalAddr() ident.Endpoint { return t.local }

// Send implements Transport: the datagram leaves through the sender's NAT
// (if any), traverses the switch, and is admitted or dropped by the
// receiver's NAT.
func (t *MemTransport) Send(to ident.Endpoint, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds limit %d", len(data), MaxDatagram)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errClosed
	}
	t.mu.Unlock()

	from := t.local
	if t.dev != nil {
		// NAT devices are not concurrency-safe; the switch mutex
		// serializes all device access (here and in deliver).
		t.sw.mu.Lock()
		from = t.dev.Outbound(time.Since(t.start).Milliseconds(), t.local, to)
		t.sw.mu.Unlock()
	}
	d := t.sw.deliveries.Get().(*delivery)
	d.sw, d.from, d.to = t.sw, from, to
	d.n = copy(d.buf[:], data)
	if t.sw.latency > 0 {
		time.AfterFunc(t.sw.latency, d.run)
	} else {
		d.deliver()
	}
	return nil
}

// deliver carries the datagram to its destination attachment, if the
// receiver's NAT admits it, and recycles the delivery unless the attachment
// kept it.
func (d *delivery) deliver() {
	if target := d.sw.route(d.from, d.to); target == nil || !target.receive(d) {
		d.sw.deliveries.Put(d)
	}
}

// route resolves a destination endpoint to the attachment behind it; nil
// means the datagram is silently dropped, as UDP through a NAT would be.
func (s *Switch) route(from, to ident.Endpoint) *MemTransport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if target, ok := s.ports[to]; ok {
		return target
	}
	// A NAT mapping?
	if att, natted := s.nats[to.IP]; natted {
		now := time.Since(att.tr.start).Milliseconds()
		if priv, admitted := att.dev.Inbound(now, from, to); admitted {
			return s.ports[priv]
		}
	}
	return nil
}

// receive queues a delivered datagram: the delivery itself on the inbox when
// a handler reads it (the result says the attachment kept d), a copy of its
// bytes on Packets otherwise. A full queue drops, as a socket buffer would.
func (t *MemTransport) receive(d *delivery) (kept bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if t.inbox == nil {
		t.enqueue(Packet{From: d.from, Data: append([]byte(nil), d.buf[:d.n]...)})
		return false
	}
	select {
	case t.inbox <- d:
		return true
	default:
		t.dropped.Add(1)
		return false
	}
}

// SetHandler implements Handled: it starts the attachment's reading
// goroutine, which calls h for every delivery with the delivery's own buffer
// and exits when Close closes the inbox.
func (t *MemTransport) SetHandler(h func(Packet)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.inbox != nil {
		return
	}
	inbox := make(chan *delivery, recvQueue)
	t.inbox = inbox
	go func() {
		for d := range inbox {
			h(Packet{From: d.from, Data: d.buf[:d.n]})
			d.sw.deliveries.Put(d)
		}
	}()
}

// Close implements Transport.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	close(t.recv)
	if t.inbox != nil {
		close(t.inbox)
	}
	t.sw.detach(t)
	return nil
}

func (s *Switch) detach(t *MemTransport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.ports, t.local)
	if t.dev != nil {
		delete(s.nats, t.dev.PublicIP())
	}
}

// Close shuts the switch down; subsequent deliveries are dropped.
func (s *Switch) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
