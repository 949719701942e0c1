package transport

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/israce"
)

func recvOne(t *testing.T, tr Transport) Packet {
	t.Helper()
	select {
	case p, ok := <-tr.Packets():
		if !ok {
			t.Fatal("packet channel closed")
		}
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for packet")
	}
	return Packet{}
}

func TestMemPublicToPublic(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	defer b.Close()

	if err := a.Send(b.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if string(p.Data) != "hello" || p.From != a.LocalAddr() {
		t.Errorf("packet = %+v", p)
	}
}

func TestMemNATBlocksUnsolicited(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	pub := sw.Attach()
	natted, adv := sw.AttachNAT(ident.PortRestrictedCone, time.Minute)
	defer pub.Close()
	defer natted.Close()

	// Unsolicited: dropped.
	if err := pub.Send(adv, []byte("knock")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-natted.Packets():
		t.Fatalf("NAT admitted unsolicited packet %+v", p)
	case <-time.After(100 * time.Millisecond):
	}

	// After the natted peer sends out, the return path is open.
	if err := natted.Send(pub.LocalAddr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, pub)
	if p.From != adv {
		t.Errorf("observed mapping %v, want advertised %v", p.From, adv)
	}
	if err := pub.Send(p.From, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	back := recvOne(t, natted)
	if string(back.Data) != "pong" {
		t.Errorf("reply = %q", back.Data)
	}
}

func TestMemOpenHole(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, aAdv := sw.AttachNAT(ident.RestrictedCone, time.Minute)
	b, bAdv := sw.AttachNAT(ident.RestrictedCone, time.Minute)
	defer a.Close()
	defer b.Close()

	sw.OpenHole(a, b, aAdv, bAdv)
	if err := a.Send(bAdv, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if string(p.Data) != "direct" {
		t.Errorf("data = %q", p.Data)
	}
}

func TestMemLatency(t *testing.T) {
	sw := NewSwitch(50 * time.Millisecond)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Errorf("delivered after %v, want ≥ 50ms", d)
	}
}

func TestMemCloseSemantics(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
	// Sending to a detached endpoint silently drops.
	if err := a.Send(b.LocalAddr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Sending from a closed transport errors.
	if err := b.Send(a.LocalAddr(), []byte("x")); err == nil {
		t.Error("send on closed transport succeeded")
	}
	if _, ok := <-b.Packets(); ok {
		t.Error("packet channel not closed")
	}
}

func TestMemOversizedDatagram(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	defer b.Close()
	if err := a.Send(b.LocalAddr(), make([]byte, MaxDatagram+1)); err == nil {
		t.Error("oversized datagram accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	msg := []byte("over the wire")
	if err := a.Send(b.LocalAddr(), msg); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if !bytes.Equal(p.Data, msg) {
		t.Errorf("data = %q", p.Data)
	}
	if p.From != a.LocalAddr() {
		t.Errorf("from = %v, want %v", p.From, a.LocalAddr())
	}
}

func TestUDPCloseClosesChannel(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-a.Packets():
		if ok {
			t.Error("received packet after close")
		}
	case <-time.After(2 * time.Second):
		t.Error("channel not closed after Close")
	}
	if err := a.Close(); err != nil {
		t.Error("double close errored:", err)
	}
	if err := a.Send(a.LocalAddr(), []byte("x")); err == nil {
		t.Error("send after close succeeded")
	}
}

func TestUDPOversized(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(a.LocalAddr(), make([]byte, MaxDatagram+1)); err == nil {
		t.Error("oversized datagram accepted")
	}
}

func TestEndpointConversion(t *testing.T) {
	e := ident.Endpoint{IP: 0x7f000001, Port: 4242}
	ap := toAddrPort(e)
	if ap.String() != "127.0.0.1:4242" {
		t.Errorf("toAddrPort = %v", ap)
	}
	if back, ok := toEndpoint(ap); !ok || back != e {
		t.Errorf("round trip = %v, %v", back, ok)
	}
	// A dual-stack socket reports IPv4 peers as IPv4-mapped IPv6.
	mapped := netip.AddrPortFrom(netip.AddrFrom16(ap.Addr().As16()), 4242)
	if back, ok := toEndpoint(mapped); !ok || back != e {
		t.Errorf("mapped round trip = %v, %v", back, ok)
	}
	if _, ok := toEndpoint(netip.MustParseAddrPort("[2001:db8::1]:4242")); ok {
		t.Error("IPv6 address accepted")
	}
	if _, ok := toEndpoint(netip.AddrPort{}); ok {
		t.Error("zero address accepted")
	}
}

// handlerSink collects what a handler saw. The handler copies Data: it is only
// valid during the call.
type handlerSink struct {
	got chan Packet
}

func newHandlerSink() *handlerSink { return &handlerSink{got: make(chan Packet, 64)} }

func (s *handlerSink) handle(p Packet) {
	s.got <- Packet{From: p.From, Data: append([]byte(nil), p.Data...)}
}

func (s *handlerSink) next(t *testing.T) Packet {
	t.Helper()
	select {
	case p := <-s.got:
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for the handler")
	}
	return Packet{}
}

// testHandler drives the Handled contract on a sender/receiver pair: queued
// datagrams stay on Packets, later ones reach the handler (and only it), the
// handler may Send, and Close still closes Packets.
func testHandler(t *testing.T, a, b Handled) {
	t.Helper()
	if err := a.Send(b.LocalAddr(), []byte("queued")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, b); string(p.Data) != "queued" {
		t.Fatalf("queued packet = %q", p.Data)
	}
	sink := newHandlerSink()
	b.SetHandler(func(p Packet) {
		sink.handle(p)
		_ = b.Send(p.From, append([]byte("re:"), p.Data...)) // Send from inside the handler
	})
	for _, msg := range []string{"one", "two"} {
		if err := a.Send(b.LocalAddr(), []byte(msg)); err != nil {
			t.Fatal(err)
		}
		if p := sink.next(t); string(p.Data) != msg || p.From != a.LocalAddr() {
			t.Errorf("handler saw %q from %v, want %q from %v", p.Data, p.From, msg, a.LocalAddr())
		}
		if p := recvOne(t, a); string(p.Data) != "re:"+msg {
			t.Errorf("reply = %q", p.Data)
		}
	}
	select {
	case p, ok := <-b.Packets():
		if ok {
			t.Errorf("packet %q queued although a handler is set", p.Data)
		}
	default:
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-b.Packets():
		if ok {
			t.Error("packet after close")
		}
	case <-time.After(2 * time.Second):
		t.Error("Packets not closed after Close")
	}
}

func TestMemHandler(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	testHandler(t, a, b)
}

func TestUDPHandler(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	testHandler(t, a, b)
}

// A reader that never drains Packets loses datagrams beyond the queue; the
// transport counts them.
func TestDroppedCountsFullQueue(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	defer b.Close()
	const extra = 10
	for i := 0; i < recvQueue+extra; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Dropped() < extra && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Dropped(); got != extra {
		t.Errorf("Dropped = %d, want %d", got, extra)
	}
	if got := len(b.Packets()); got != recvQueue {
		t.Errorf("queued = %d, want %d", got, recvQueue)
	}
	if a.Dropped() != 0 {
		t.Errorf("sender counted %d drops", a.Dropped())
	}
}

// A Send to an attachment with a handler allocates nothing once the
// delivery pool is warm: no payload copy, no goroutine, no closure.
func TestMemSendToHandlerAllocatesNothing(t *testing.T) {
	sw := NewSwitch(0)
	defer sw.Close()
	a, b := sw.Attach(), sw.Attach()
	defer a.Close()
	defer b.Close()
	arrived := make(chan int, 1)
	b.SetHandler(func(p Packet) { arrived <- len(p.Data) })
	data := make([]byte, 226)
	allocs := testing.AllocsPerRun(500, func() {
		if err := a.Send(b.LocalAddr(), data); err != nil {
			t.Error(err)
		}
		if n := <-arrived; n != len(data) {
			t.Errorf("handler saw %d bytes, want %d", n, len(data))
		}
	})
	if allocs != 0 && !israce.Enabled {
		t.Errorf("Send to a handler allocates %v times per datagram, want 0", allocs)
	}
}
