package core

import (
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// RVPResolver reports the fixed public rendez-vous peer assigned to a natted
// peer. The second result is false for public peers and unknown IDs.
type RVPResolver func(ident.NodeID) (view.Descriptor, bool)

// StaticRVP is the strawman the paper's Section 4 introduction dismisses:
// every natted peer is bound at join time to one fixed public rendez-vous
// peer (RVP), keeps a hole toward it alive with periodic PINGs, and all hole
// punching toward a natted peer goes through that single RVP.
//
// The paper's two criticisms are observable in this implementation's
// measurements: the relay/keepalive load concentrates on public peers
// (ablation A1), and an RVP's failure orphans every natted peer bound to it.
type StaticRVP struct {
	gossip
	ownRVP  view.Descriptor // zero for public peers
	resolve RVPResolver
	// clients maps peer IDs to their observed endpoints, learned from
	// keepalive PINGs and forwarded traffic. An RVP uses it to reach the
	// natted peers bound to it.
	clients map[ident.NodeID]ident.Endpoint
	pending punches
}

var _ Engine = (*StaticRVP)(nil)

// NewStaticRVP builds the engine. ownRVP must be the zero Descriptor for
// public peers and the assigned public RVP for natted ones; resolve must
// return the RVP of any natted peer in the system.
func NewStaticRVP(cfg Config, ownRVP view.Descriptor, resolve RVPResolver) *StaticRVP {
	g := newGossip(cfg)
	if resolve == nil {
		panic("core: StaticRVP requires a resolver")
	}
	if cfg.Self.Class.Natted() && ownRVP.ID.IsNil() {
		panic("core: natted StaticRVP peer requires an RVP")
	}
	return &StaticRVP{
		gossip:  g,
		ownRVP:  ownRVP,
		resolve: resolve,
		clients: make(map[ident.NodeID]ident.Endpoint),
	}
}

// endpointOf returns the best-known transport endpoint for a peer.
func (s *StaticRVP) endpointOf(d view.Descriptor) ident.Endpoint {
	if ep, ok := s.clients[d.ID]; ok {
		return ep
	}
	return d.Addr
}

// Tick implements Engine: keepalive toward the own RVP, then one shuffle.
func (s *StaticRVP) Tick(now int64) []Send {
	defer s.view.IncreaseAge()
	s.pending = s.pending[:0]
	s.expire(s.cfg.EvictUnanswered)
	self := s.Self()
	out := s.sh.out[:0]
	if self.Class.Natted() {
		out = append(out, toPeer(s.ownRVP, newMsg(s.cfg.Msgs, wire.KindPing, self, s.ownRVP, self)))
	}
	if target, ok := s.pick(); ok {
		out = s.initiate(out, self, target)
	}
	s.sh.out = out
	return out
}

// initiate appends the datagrams that open the period's shuffle with target.
func (s *StaticRVP) initiate(out []Send, self, target view.Descriptor) []Send {
	if !target.Class.Natted() {
		return append(out, toPeer(target, s.request(target)))
	}
	rvp, ok := s.resolve(target.ID)
	if !ok {
		s.stats.NoRoute++
		return out
	}
	if self.Class == ident.Symmetric || target.Class == ident.Symmetric {
		// Hole punching cannot serve symmetric combinations reliably;
		// relay the whole exchange through the target's RVP.
		s.stats.Relayed++
		return append(out, toPeer(rvp, s.request(target)))
	}
	s.stats.HolePunchesStarted++
	s.pending = append(s.pending, target.ID)
	out = append(out, toPeer(rvp, newMsg(s.cfg.Msgs, wire.KindOpenHole, self, target, self)))
	if self.Class.Natted() {
		out = append(out, toPeer(target, newMsg(s.cfg.Msgs, wire.KindPing, self, target, self)))
	}
	return out
}

// Receive implements Engine.
func (s *StaticRVP) Receive(now int64, from ident.Endpoint, msg *wire.Message) []Send {
	s.clients[msg.Via.ID] = from
	if s.inTransit(msg) {
		// We are the destination's RVP: hand the datagram over.
		return s.handOver(msg)
	}
	switch msg.Kind {
	case wire.KindResponse:
		s.completed(msg)
	case wire.KindRequest:
		if msg.Via.ID == msg.Src.ID {
			// Fig. 1 as it stands: a REQUEST that came directly is answered
			// to the observed endpoint, the open return path.
			return s.exchange(from, msg)
		}
		// Relayed request: route the response through the initiator's RVP.
		resp, sent := s.response(msg)
		s.answered(msg, sent)
		if resp == nil {
			return nil
		}
		if rvp, ok := s.resolve(msg.Src.ID); ok {
			s.stats.Relayed++
			return s.one(toPeer(rvp, resp))
		}
		if !msg.Src.Class.Natted() {
			return s.one(toPeer(msg.Src, resp))
		}
		s.stats.NoRoute++
		s.cfg.Msgs.Put(resp)
	case wire.KindOpenHole:
		s.stats.ChainHopsTotal++ // exactly one RVP by construction
		s.stats.ChainSamples++
		return s.pong(msg.Src.Addr, msg)
	case wire.KindPing:
		return s.pong(from, msg)
	case wire.KindPong:
		if s.pending.take(msg.Src.ID) {
			s.stats.HolePunchesCompleted++
			return s.one(Send{To: from, ToID: msg.Src.ID, Msg: s.request(msg.Src)})
		}
	}
	return nil
}

// handOver forwards a datagram to the natted peer bound to this RVP.
func (s *StaticRVP) handOver(msg *wire.Message) []Send {
	if msg.Hops >= maxForwardHops {
		// Honest static chains are one hop; anything at the limit is a
		// forwarding loop fed by hostile or corrupt traffic.
		s.stats.HopLimitDrops++
		return nil
	}
	s.stats.Forwarded++
	fwd := s.cfg.Msgs.Clone(msg)
	fwd.Hops++
	fwd.Via = s.Self()
	return s.one(Send{To: s.endpointOf(msg.Dst), ToID: msg.Dst.ID, Msg: fwd})
}
