// Package wire defines the messages exchanged by the gossip protocols and a
// compact binary codec for them (encoding/binary, big endian).
//
// Five message kinds exist, exactly those of the Nylon pseudocode (Fig. 6 of
// the paper): REQUEST and RESPONSE carry views during a shuffle, OPEN_HOLE
// asks a natted destination to punch a hole back to the source, and PING /
// PONG open and confirm NAT holes.
//
// Encoded sizes are what the simulator's bandwidth accounting measures
// (Figures 7 and 8 of the paper), so the codec keeps messages small: a
// descriptor is 19 bytes, a view entry 23 bytes (descriptor plus the relayed
// route TTL), and the fixed header 42 bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/ident"
	"repro/internal/view"
)

// Kind discriminates the message types of the protocol.
type Kind uint8

// Message kinds (Fig. 6 of the paper).
const (
	KindRequest Kind = iota + 1
	KindResponse
	KindOpenHole
	KindPing
	KindPong
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "REQUEST"
	case KindResponse:
		return "RESPONSE"
	case KindOpenHole:
		return "OPEN_HOLE"
	case KindPing:
		return "PING"
	case KindPong:
		return "PONG"
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

func (k Kind) valid() bool { return k >= KindRequest && k <= KindPong }

// ViewEntry is one descriptor as shipped during a shuffle, together with the
// sender's remaining route TTL toward that peer in milliseconds (the paper:
// "TTLs are exchanged by peers together with their views"). RouteTTL is zero
// for public peers, which need no route.
type ViewEntry struct {
	Desc     view.Descriptor
	RouteTTL uint32
}

// Message is one protocol datagram.
//
// Src is the originator of the exchange and Dst its final recipient; they
// differ from the transport-level sender and receiver whenever the message is
// forwarded along an RVP chain. Via identifies the transport-level sender of
// this datagram: the originator stamps it with itself and every relay
// overwrites it before forwarding, so the receiver always knows which chain
// neighbour handed it the message (the "p" of the paper's pseudocode). Hops
// counts forwarding steps for the latency metric of Fig. 9.
type Message struct {
	Kind    Kind
	Hops    uint8
	Src     view.Descriptor
	Dst     view.Descriptor
	Via     view.Descriptor
	Entries []ViewEntry

	// OriginSeq and PathHash are the causal stamp maintained by the host
	// network at send time (see internal/trace): (Src.ID, OriginSeq) names
	// the forwarding chain this datagram belongs to — the origin's
	// per-message counter — and PathHash folds in every relay the datagram
	// crossed. The stamp is in-memory forensic state, deliberately NOT part
	// of the wire codec: Marshal ignores it and Unmarshal leaves it zero, so
	// encoded sizes — the paper's bandwidth accounting (Figs. 7/8) — are
	// unchanged. Pool.Clone preserves it along forwarding; Pool.Put clears
	// it.
	OriginSeq uint32
	PathHash  uint64
}

// Codec constants.
const (
	version = 1

	descSize   = 8 + 4 + 2 + 1 + 4 // ID + IP + Port + Class + Age
	entrySize  = descSize + 4      // + RouteTTL
	headerSize = 1 + 1 + 1 + 3*descSize + 2

	// MaxEntries bounds the entry count accepted by Unmarshal, protecting
	// against hostile or corrupt length fields. Views in this repository
	// are far smaller.
	MaxEntries = 1024
)

// Size returns the encoded size of the message in bytes without encoding it.
func (m *Message) Size() int { return headerSize + len(m.Entries)*entrySize }

// EntriesWithin returns the most entries an encoded message of at most size
// bytes can carry (negative when not even the header fits).
func EntriesWithin(size int) int { return (size - headerSize) / entrySize }

func putDesc(b []byte, d view.Descriptor) {
	binary.BigEndian.PutUint64(b[0:], uint64(d.ID))
	binary.BigEndian.PutUint32(b[8:], uint32(d.Addr.IP))
	binary.BigEndian.PutUint16(b[12:], d.Addr.Port)
	b[14] = byte(d.Class)
	binary.BigEndian.PutUint32(b[15:], d.Age)
}

func getDesc(b []byte) (view.Descriptor, error) {
	d := view.Descriptor{
		ID:    ident.NodeID(binary.BigEndian.Uint64(b[0:])),
		Addr:  ident.Endpoint{IP: ident.IP(binary.BigEndian.Uint32(b[8:])), Port: binary.BigEndian.Uint16(b[12:])},
		Class: ident.NATClass(b[14]),
		Age:   binary.BigEndian.Uint32(b[15:]),
	}
	if !d.Class.Valid() {
		return d, fmt.Errorf("wire: invalid NAT class %d", b[14])
	}
	return d, nil
}

// Marshal encodes the message into a fresh buffer of exactly its size.
func (m *Message) Marshal() ([]byte, error) {
	b, err := m.AppendMarshal(make([]byte, 0, m.Size()))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// AppendMarshal appends the encoding of the message to dst and returns the
// extended slice; with a reused buffer of sufficient capacity it performs no
// allocation. On error dst is returned unchanged.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	if !m.Kind.valid() {
		return dst, fmt.Errorf("wire: cannot marshal invalid kind %v", m.Kind)
	}
	if len(m.Entries) > MaxEntries {
		return dst, fmt.Errorf("wire: %d entries exceed limit %d", len(m.Entries), MaxEntries)
	}
	size := m.Size()
	dst = slices.Grow(dst, size)
	b := dst[len(dst) : len(dst)+size]
	b[0] = version
	b[1] = byte(m.Kind)
	b[2] = m.Hops
	putDesc(b[3:], m.Src)
	putDesc(b[3+descSize:], m.Dst)
	putDesc(b[3+2*descSize:], m.Via)
	binary.BigEndian.PutUint16(b[3+3*descSize:], uint16(len(m.Entries)))
	off := headerSize
	for _, e := range m.Entries {
		putDesc(b[off:], e.Desc)
		binary.BigEndian.PutUint32(b[off+descSize:], e.RouteTTL)
		off += entrySize
	}
	return dst[:len(dst)+size], nil
}

// Unmarshal decodes a message into a fresh Message. Errors identify
// truncation, version mismatch, and invalid field values; they wrap
// ErrMalformed.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := UnmarshalInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes b into m, overwriting every field and reusing the
// capacity of m.Entries: a receive loop that decodes into one long-lived
// message allocates nothing per datagram. The decoded message does not alias
// b. It applies exactly Unmarshal's validation; after an error m holds a
// partial decode and must not be used.
func UnmarshalInto(m *Message, b []byte) error {
	if len(b) < headerSize {
		return fmt.Errorf("%w: %d bytes, need at least %d", ErrMalformed, len(b), headerSize)
	}
	if b[0] != version {
		return fmt.Errorf("%w: unknown version %d", ErrMalformed, b[0])
	}
	*m = Message{Kind: Kind(b[1]), Hops: b[2], Entries: m.Entries[:0]}
	if !m.Kind.valid() {
		return fmt.Errorf("%w: unknown kind %d", ErrMalformed, b[1])
	}
	var err error
	if m.Src, err = getDesc(b[3:]); err != nil {
		return fmt.Errorf("%w: src: %v", ErrMalformed, err)
	}
	if m.Dst, err = getDesc(b[3+descSize:]); err != nil {
		return fmt.Errorf("%w: dst: %v", ErrMalformed, err)
	}
	if m.Via, err = getDesc(b[3+2*descSize:]); err != nil {
		return fmt.Errorf("%w: via: %v", ErrMalformed, err)
	}
	n := int(binary.BigEndian.Uint16(b[3+3*descSize:]))
	if n > MaxEntries {
		return fmt.Errorf("%w: %d entries exceed limit %d", ErrMalformed, n, MaxEntries)
	}
	if len(b) != headerSize+n*entrySize {
		return fmt.Errorf("%w: %d bytes for %d entries, want %d", ErrMalformed, len(b), n, headerSize+n*entrySize)
	}
	if n > cap(m.Entries) {
		m.Entries = make([]ViewEntry, n)
	}
	m.Entries = m.Entries[:n]
	off := headerSize
	for i := range m.Entries {
		e := &m.Entries[i]
		if e.Desc, err = getDesc(b[off:]); err != nil {
			return fmt.Errorf("%w: entry %d: %v", ErrMalformed, i, err)
		}
		e.RouteTTL = binary.BigEndian.Uint32(b[off+descSize:])
		off += entrySize
	}
	return nil
}

// ErrMalformed is wrapped by every Unmarshal error.
var ErrMalformed = errors.New("wire: malformed message")

// AppendDescriptors appends the bare descriptors of the carried entries to
// dst and returns the extended slice; with a reused buffer of sufficient
// capacity it performs no allocation.
func (m *Message) AppendDescriptors(dst []view.Descriptor) []view.Descriptor {
	for _, e := range m.Entries {
		dst = append(dst, e.Desc)
	}
	return dst
}

// String implements fmt.Stringer.
func (m *Message) String() string {
	return fmt.Sprintf("%v src=%v dst=%v hops=%d entries=%d", m.Kind, m.Src.ID, m.Dst.ID, m.Hops, len(m.Entries))
}
