// Package boot implements the join-time machinery every experiment in the
// paper presupposes but the protocol pseudocode leaves out: an introducer
// service that (a) tells joining peers their public mapping and NAT class
// (STUN-style binding probes, RFC 3489 flavour), (b) hands them an initial
// view of seed peers, and (c) coordinates the first hole punches so those
// seeds are immediately usable — the live analogue of the simulator's
// InstallHole bootstrap.
//
// The wire format is deliberately distinct from the gossip protocol's
// (different magic byte), so both can share a socket without ambiguity.
package boot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// Kind discriminates bootstrap message types.
type Kind uint8

// Bootstrap message kinds.
const (
	// KindBindingReq asks the introducer to report the sender's observed
	// endpoint, optionally replying from an alternate socket to probe NAT
	// filtering.
	KindBindingReq Kind = iota + 1
	// KindBindingResp carries the observed endpoint and the introducer's
	// alternate endpoints.
	KindBindingResp
	// KindJoinReq registers the joiner and requests seeds.
	KindJoinReq
	// KindJoinResp carries the assigned seed descriptors.
	KindJoinResp
	// KindPunch asks the receiver to open a NAT hole toward the carried
	// peer (sent by the introducer to seeds, and by the joiner to seeds as
	// the hole-opening datagram itself).
	KindPunch
)

// ReplyVia selects which introducer socket answers a binding request.
type ReplyVia uint8

// Reply paths for binding probes.
const (
	// ViaPrimary answers from the socket that received the request.
	ViaPrimary ReplyVia = iota
	// ViaAltPort answers from the same IP, different port (RC vs PRC
	// discrimination).
	ViaAltPort
	// ViaAltIP answers from a different IP (FC vs RC discrimination).
	ViaAltIP
)

// Message is one bootstrap datagram.
type Message struct {
	Kind Kind
	// Seq matches responses to requests.
	Seq uint32
	// Via is the requested reply path (binding requests only).
	Via ReplyVia
	// Mapped is the observed endpoint of the requester (binding responses).
	Mapped ident.Endpoint
	// AltPort and AltIP advertise the introducer's alternate sockets
	// (binding responses; zero when unavailable).
	AltPort ident.Endpoint
	AltIP   ident.Endpoint
	// Self describes the joiner (join requests) or the peer to punch
	// toward (punch messages).
	Self view.Descriptor
	// Seeds carries the assigned initial view (join responses).
	Seeds []view.Descriptor
}

const magic = 0xB0

// MaxSeeds bounds the seed list accepted by Unmarshal.
const MaxSeeds = 64

// ErrMalformed is wrapped by every Unmarshal error.
var ErrMalformed = errors.New("boot: malformed message")

// Marshal encodes the message.
func (m *Message) Marshal() ([]byte, error) {
	if m.Kind < KindBindingReq || m.Kind > KindPunch {
		return nil, fmt.Errorf("boot: cannot marshal invalid kind %d", m.Kind)
	}
	if len(m.Seeds) > MaxSeeds {
		return nil, fmt.Errorf("boot: %d seeds exceed limit %d", len(m.Seeds), MaxSeeds)
	}
	b := make([]byte, 0, 64+len(m.Seeds)*wire.DescriptorSize)
	b = append(b, magic, byte(m.Kind), byte(m.Via))
	b = binary.BigEndian.AppendUint32(b, m.Seq)
	b = wire.AppendEndpoint(b, m.Mapped)
	b = wire.AppendEndpoint(b, m.AltPort)
	b = wire.AppendEndpoint(b, m.AltIP)
	b = wire.AppendDescriptor(b, m.Self)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Seeds)))
	for _, s := range m.Seeds {
		b = wire.AppendDescriptor(b, s)
	}
	return b, nil
}

// headerLen is the fixed prefix before the seed list.
const headerLen = 3 + 4 + 3*6 + wire.DescriptorSize + 2

// IsBoot reports whether the datagram looks like a bootstrap message (as
// opposed to a gossip protocol message), so both protocols can share a
// socket.
func IsBoot(data []byte) bool { return len(data) > 0 && data[0] == magic }

// Unmarshal decodes a bootstrap message.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrMalformed, len(data), headerLen)
	}
	if data[0] != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrMalformed, data[0])
	}
	m := &Message{Kind: Kind(data[1]), Via: ReplyVia(data[2])}
	if m.Kind < KindBindingReq || m.Kind > KindPunch {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrMalformed, data[1])
	}
	if m.Via > ViaAltIP {
		return nil, fmt.Errorf("%w: unknown reply path %d", ErrMalformed, data[2])
	}
	m.Seq = binary.BigEndian.Uint32(data[3:])
	off := 7
	var err error
	if m.Mapped, err = wire.DecodeEndpoint(data[off:]); err != nil {
		return nil, err
	}
	off += 6
	if m.AltPort, err = wire.DecodeEndpoint(data[off:]); err != nil {
		return nil, err
	}
	off += 6
	if m.AltIP, err = wire.DecodeEndpoint(data[off:]); err != nil {
		return nil, err
	}
	off += 6
	if m.Self, err = wire.DecodeDescriptor(data[off:]); err != nil {
		return nil, fmt.Errorf("%w: self: %v", ErrMalformed, err)
	}
	off += wire.DescriptorSize
	n := int(binary.BigEndian.Uint16(data[off:]))
	off += 2
	if n > MaxSeeds {
		return nil, fmt.Errorf("%w: %d seeds exceed limit %d", ErrMalformed, n, MaxSeeds)
	}
	if len(data) != off+n*wire.DescriptorSize {
		return nil, fmt.Errorf("%w: %d bytes for %d seeds, want %d", ErrMalformed, len(data), n, off+n*wire.DescriptorSize)
	}
	for i := 0; i < n; i++ {
		d, err := wire.DecodeDescriptor(data[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: seed %d: %v", ErrMalformed, i, err)
		}
		m.Seeds = append(m.Seeds, d)
		off += wire.DescriptorSize
	}
	return m, nil
}
