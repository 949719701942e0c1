// Package transport abstracts datagram IO for the real-time Nylon node: the
// same protocol engine runs over an in-memory switch (tests, examples, NAT
// labs) or UDP sockets (deployments).
package transport

import (
	"sync/atomic"

	"repro/internal/ident"
)

// Packet is one received datagram.
type Packet struct {
	// From is the source endpoint as observed by the receiver — for a
	// natted sender, its NAT mapping. Nylon's endpoint learning feeds on
	// it.
	From ident.Endpoint
	// Data is the payload. A packet read from Packets owns its bytes; one
	// passed to a Handler borrows the transport's receive buffer and is
	// valid only until the handler returns.
	Data []byte
}

// Transport is a datagram transport. Implementations must be safe for
// concurrent use of Send with one reader of Packets.
type Transport interface {
	// LocalAddr returns the endpoint the transport receives on. For
	// natted deployments this is the private endpoint; the advertised
	// endpoint is discovered separately (e.g. via an introducer).
	LocalAddr() ident.Endpoint
	// Send transmits one datagram. Sends never block indefinitely; errors
	// are local (closed transport, oversized datagram).
	Send(to ident.Endpoint, data []byte) error
	// Packets returns the receive channel. It is closed by Close.
	Packets() <-chan Packet
	// Close releases resources and closes the Packets channel.
	Close() error
}

// Handled is the optional receive-callback extension of Transport. Once a
// handler is set the transport stops feeding Packets and instead calls the
// handler for every datagram on its one reading goroutine, with the read
// buffer itself: no copy, no second queue, no hand-off. Packet.Data is valid
// only during the call. Calls are sequential, but one may still be running
// when Close returns; the receiver synchronizes with its own state.
// Datagrams queued before SetHandler stay readable from Packets, which Close
// still closes. A handler may call Send.
//
// Hosts pick the path by type assertion: a transport that implements Handled
// gets a handler, any other Transport (decorators, user transports) is read
// through Packets.
type Handled interface {
	Transport
	// SetHandler installs h; it may be called once, before or while
	// datagrams arrive.
	SetHandler(h func(Packet))
}

// DropCounter is implemented by transports that count the datagrams they
// discarded because the Packets queue was full.
type DropCounter interface {
	Dropped() uint64
}

// receiver is the receive side shared by the transports: the Packets queue
// and the drop counter.
type receiver struct {
	recv    chan Packet
	dropped atomic.Uint64
}

// recvQueue is the Packets buffer: a burst of this many datagrams survives a
// reader that is momentarily busy, like a socket buffer would hold them.
const recvQueue = 256

func newReceiver() receiver { return receiver{recv: make(chan Packet, recvQueue)} }

// Packets implements Transport.
func (r *receiver) Packets() <-chan Packet { return r.recv }

// Dropped implements DropCounter.
func (r *receiver) Dropped() uint64 { return r.dropped.Load() }

// enqueue hands an owned packet to the Packets queue, dropping (and counting)
// it when the reader is too slow — as a full socket buffer would.
func (r *receiver) enqueue(p Packet) {
	select {
	case r.recv <- p:
	default:
		r.dropped.Add(1)
	}
}

// MaxDatagram is the largest datagram any transport must carry: a full
// shuffle buffer is far below a safe UDP payload size.
const MaxDatagram = 1400
