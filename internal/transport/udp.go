package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
)

// UDPTransport carries protocol datagrams over an IPv4 UDP socket. It reads
// and writes with netip addresses, so neither direction allocates.
type UDPTransport struct {
	receiver
	conn    *net.UDPConn
	local   ident.Endpoint
	handler atomic.Pointer[func(Packet)]

	closeOnce sync.Once
	closeErr  error
}

var _ Handled = (*UDPTransport)(nil)

// ListenUDP opens a UDP socket on the given address ("ip:port"; ":0" picks a
// free port on all interfaces) and starts its read loop.
func ListenUDP(addr string) (*UDPTransport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp4", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	ua, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("transport: not a UDP address: %v", conn.LocalAddr())
	}
	// A wildcard listen reports 0.0.0.0 (or no IP at all): the zero IP.
	local, _ := toEndpoint(ua.AddrPort())
	local.Port = uint16(ua.Port)
	t := &UDPTransport{receiver: newReceiver(), conn: conn, local: local}
	go t.readLoop()
	return t, nil
}

// toEndpoint converts an IPv4 (or IPv4-mapped) socket address; ok is false
// for anything else.
func toEndpoint(ap netip.AddrPort) (ident.Endpoint, bool) {
	a := ap.Addr().Unmap()
	if !a.Is4() {
		return ident.Zero, false
	}
	b := a.As4()
	return ident.Endpoint{
		IP:   ident.IP(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])),
		Port: ap.Port(),
	}, true
}

// toAddrPort converts back to the net representation.
func toAddrPort(e ident.Endpoint) netip.AddrPort {
	ip := [4]byte{byte(e.IP >> 24), byte(e.IP >> 16), byte(e.IP >> 8), byte(e.IP)}
	return netip.AddrPortFrom(netip.AddrFrom4(ip), e.Port)
}

// readLoop is the socket's only reader. With a handler set it calls the
// handler on this goroutine with the read buffer itself; otherwise it copies
// the datagram and queues it on Packets.
func (t *UDPTransport) readLoop() {
	defer close(t.recv)
	buf := make([]byte, MaxDatagram)
	for {
		n, from, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed or fatal; channel closure signals the node
		}
		ep, ok := toEndpoint(from)
		if !ok {
			continue
		}
		if h := t.handler.Load(); h != nil {
			(*h)(Packet{From: ep, Data: buf[:n]})
			continue
		}
		t.enqueue(Packet{From: ep, Data: append([]byte(nil), buf[:n]...)})
	}
}

// SetHandler implements Handled.
func (t *UDPTransport) SetHandler(h func(Packet)) { t.handler.Store(&h) }

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() ident.Endpoint { return t.local }

// Send implements Transport.
func (t *UDPTransport) Send(to ident.Endpoint, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds limit %d", len(data), MaxDatagram)
	}
	_, err := t.conn.WriteToUDPAddrPort(data, toAddrPort(to))
	if err != nil && errors.Is(err, net.ErrClosed) {
		return errClosed
	}
	return err
}

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.closeOnce.Do(func() { t.closeErr = t.conn.Close() })
	return t.closeErr
}
