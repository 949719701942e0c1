package boot

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/view"
)

// JoinResult is what a peer needs to start gossiping: its public mapping, its
// NAT class, and an initial view whose holes the introducer pre-punched.
type JoinResult struct {
	// Mapped is the joiner's endpoint as the introducer observed it: the
	// advertised address for the node's descriptor.
	Mapped ident.Endpoint
	// Class is the inferred NAT class.
	Class ident.NATClass
	// Seeds is the assigned initial view.
	Seeds []view.Descriptor
}

// ErrTimeout is returned when the introducer does not answer.
var ErrTimeout = errors.New("boot: introducer timed out")

// probeAttempts is how many times each probe is sent before it times out.
const probeAttempts = 2

// Join runs the full bootstrap handshake for the peer with the given ID over
// tr: STUN-style binding probes to discover the mapping and classify the NAT,
// then registration for seeds. After Join returns, the caller should pass
// Seeds to nylon.Config.Bootstrap and keep using tr for the node (the
// introducer's Punch messages and the holes they opened remain valid).
//
// Classification follows RFC 3489's decision tree, degraded gracefully when
// the introducer lacks alternate sockets: ambiguous cone classes resolve to
// port-restricted cone, the safe direction (the protocol relays rather than
// punches in its ambiguous corners).
//
// timeout bounds each probe attempt's round trip; zero means 2 s.
func Join(tr transport.Transport, introducer ident.Endpoint, id ident.NodeID, timeout time.Duration) (JoinResult, error) {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	c := &client{tr: tr, timeout: timeout}

	// Probe 1: primary mapping.
	resp1, err := c.binding(introducer, ViaPrimary)
	if err != nil {
		return JoinResult{}, fmt.Errorf("boot: primary binding probe: %w", err)
	}
	res := JoinResult{Mapped: resp1.Mapped}

	switch {
	case resp1.Mapped == tr.LocalAddr():
		res.Class = ident.Public
	default:
		res.Class = c.classify(introducer, resp1)
	}

	// Registration.
	self := view.Descriptor{ID: id, Addr: res.Mapped, Class: res.Class}
	join, err := c.request(introducer, &Message{Kind: KindJoinReq, Seq: c.nextSeq(), Self: self},
		func(m *Message) bool { return m.Kind == KindJoinResp })
	if err != nil {
		return JoinResult{}, fmt.Errorf("boot: join request: %w", err)
	}
	res.Seeds = join.Seeds

	// Open our own holes toward the seeds; their side is handled by the
	// introducer's Punch messages.
	for _, s := range res.Seeds {
		punch, err := (&Message{Kind: KindPunch, Self: self}).Marshal()
		if err == nil {
			_ = tr.Send(s.Addr, punch)
		}
	}
	return res, nil
}

// client sequences request/response exchanges over the transport.
type client struct {
	tr      transport.Transport
	timeout time.Duration
	seq     uint32
}

func (c *client) nextSeq() uint32 { c.seq++; return c.seq }

// binding sends a binding request asking for a reply over the given path and
// waits for the matching response. A timeout is returned when the reply path
// is blocked by the local NAT — which is the signal classification uses.
func (c *client) binding(to ident.Endpoint, via ReplyVia) (*Message, error) {
	seq := c.nextSeq()
	return c.request(to, &Message{Kind: KindBindingReq, Seq: seq, Via: via},
		func(m *Message) bool { return m.Kind == KindBindingResp && m.Seq == seq })
}

func (c *client) request(to ident.Endpoint, req *Message, match func(*Message) bool) (*Message, error) {
	data, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < probeAttempts; attempt++ {
		if err := c.tr.Send(to, data); err != nil {
			return nil, err
		}
		deadline := time.NewTimer(c.timeout)
		for {
			select {
			case <-deadline.C:
				goto retry
			case pkt, ok := <-c.tr.Packets():
				if !ok {
					deadline.Stop()
					return nil, errors.New("boot: transport closed")
				}
				m, err := Unmarshal(pkt.Data)
				if err != nil {
					continue // not a bootstrap message; the node isn't running yet
				}
				if match(m) {
					deadline.Stop()
					return m, nil
				}
			}
		}
	retry:
	}
	return nil, ErrTimeout
}

// classify runs the filtering and mapping probes of RFC 3489 against the
// introducer's alternate sockets.
func (c *client) classify(introducer ident.Endpoint, first *Message) ident.NATClass {
	// Filtering test first (RFC 3489 Test II): it must run before anything
	// is sent to the alternate sockets, or cone NATs would admit their
	// replies because of that contact rather than permissive filtering.
	fullCone := false
	if !first.AltIP.IsZero() {
		if _, err := c.binding(introducer, ViaAltIP); err == nil {
			fullCone = true
		}
	}
	// Mapping test (Test I against an alternate destination): symmetric
	// NATs allocate a new mapping per destination.
	usedAltPort := false
	for _, alt := range []ident.Endpoint{first.AltIP, first.AltPort} {
		if alt.IsZero() {
			continue
		}
		if alt == first.AltPort {
			usedAltPort = true
		}
		if resp, err := c.binding(alt, ViaPrimary); err == nil {
			if resp.Mapped != first.Mapped {
				return ident.Symmetric
			}
			break
		}
	}
	if fullCone {
		return ident.FullCone
	}
	// Port-sensitivity test (Test III): only meaningful if the alternate
	// port was never contacted, otherwise a PRC NAT would admit its reply.
	if !first.AltPort.IsZero() && !usedAltPort {
		if _, err := c.binding(introducer, ViaAltPort); err == nil {
			return ident.RestrictedCone
		}
		return ident.PortRestrictedCone
	}
	// Indistinguishable: assume the stricter cone class, which the
	// protocol treats more conservatively (relaying instead of punching in
	// the symmetric corner cases).
	return ident.PortRestrictedCone
}
