package core

import (
	"repro/internal/ident"
	"repro/internal/prefetch"
	"repro/internal/rt"
	"repro/internal/view"
	"repro/internal/wire"
)

// Nylon is the NAT-resilient gossip peer-sampling engine of Fig. 6 of the
// paper. On top of the (push/pull, rand, healer) baseline it adds:
//
//   - a routing table mapping natted view entries to the rendez-vous peer
//     (RVP) that provided them, with TTLs that travel along with view entries
//     during shuffles;
//   - reactive hole punching: OPEN_HOLE messages routed hop-by-hop along RVP
//     chains, a PING that opens the initiator's own NAT, and a PONG that
//     confirms the hole, after which the REQUEST flows directly;
//   - full relaying of exchanges that hole punching cannot serve (symmetric
//     NAT combinations, Fig. 6 lines 5-7 and 20-22).
//
// Two engineering choices go slightly beyond the pseudocode and are
// documented in DESIGN.md: (1) endpoint learning — the engine records the
// observed transport endpoint of every datagram's Via peer, which is what
// makes replies to symmetric-NAT mappings work; (2) routes for received view
// entries are installed toward the transport-level sender (Via) rather than
// the logical shuffle partner, and relays snoop forwarded shuffles the same
// way. For every exchange that completes directly (all non-symmetric
// combinations) Via equals the shuffle partner, so this matches the paper
// exactly; for relayed exchanges it is what keeps the RVP chain invariant —
// "every hop can route the message onward" — actually true.
type Nylon struct {
	gossip
	// routes is held inline, so the header its index probes start from
	// sits in the engine record itself (see Prefetch).
	routes rt.Table
	// pending holds the hole punches started this period.
	pending punches
	// tick counts Tick calls, driving the thinned purge cadence below.
	tick uint64
}

// purgeEvery is the Tick cadence at which expired routing-table rows are
// reclaimed. Expired rows are invisible to every read (Next/Get/TTL
// self-filter, Set overwrites them under the same policy either way), so
// the cadence is unobservable; it only bounds how long dead rows occupy
// memory.
const purgeEvery = 4

var _ Engine = (*Nylon)(nil)

// NewNylon builds a Nylon engine. It panics on an invalid Config.
func NewNylon(cfg Config) *Nylon {
	g := newGossip(cfg)
	if cfg.HoleTimeout <= 0 {
		panic("core: Nylon requires a positive HoleTimeout")
	}
	return &Nylon{gossip: g, routes: g.sh.Routes.MakeTable(cfg.Self.ID)}
}

// Routes exposes the routing table for metrics and tests (read-only use).
func (n *Nylon) Routes() *rt.Table { return &n.routes }

// Prefetch hints the state a coming Receive of a datagram from via touches
// first. With a nil via it hints the line of the engine record that holds
// the routing table's header; otherwise it reads that header and hints the
// index cell Receive's first route write, SetDirect(via), starts probing
// at. It never writes.
func (n *Nylon) Prefetch(via ident.NodeID) {
	if via.IsNil() {
		prefetch.Line(&n.routes)
		return
	}
	n.routes.Prefetch(via)
}

// Bootstrap seeds the view and installs direct routes to the seeds, modelling
// the join handshake performed through an introducer. The host must install
// the matching NAT state (see the simulator's bootstrap).
func (n *Nylon) Bootstrap(now int64, ds []view.Descriptor) {
	for _, d := range ds {
		if n.view.Add(d) {
			n.routes.SetDirect(d, now+n.cfg.HoleTimeout)
		}
	}
}

// reachableDirect reports whether dest accepts our datagrams without any
// traversal, and returns the endpoint to use.
func (n *Nylon) reachableDirect(dest view.Descriptor, now int64) (ident.Endpoint, bool) {
	if !dest.Class.Natted() || dest.Class == ident.FullCone {
		return dest.Addr, true
	}
	if e, ok := n.routes.Get(dest.ID, now); ok && e.RVP.ID == dest.ID {
		// Use the learned endpoint: for symmetric peers it is the only
		// mapping that admits us.
		return e.RVP.Addr, true
	}
	return ident.Zero, false
}

// resolveHop walks the routing table from dest to the first peer that can be
// reached directly, which is where the datagram must be transmitted. The
// second result is false when no live chain exists.
func (n *Nylon) resolveHop(dest view.Descriptor, now int64) (view.Descriptor, bool) {
	cur := dest
	for depth := 0; depth < 8; depth++ {
		rvp, ok := n.routes.Next(cur.ID, now)
		if !ok {
			return view.Descriptor{}, false
		}
		if rvp.ID == cur.ID && cur.ID == dest.ID {
			// Direct hole to the destination itself.
			return rvp, true
		}
		if addr, ok := n.reachableDirect(rvp, now); ok {
			rvp.Addr = addr
			return rvp, true
		}
		if rvp.ID == cur.ID {
			return view.Descriptor{}, false
		}
		cur = rvp
	}
	return view.Descriptor{}, false
}

// withTTLs annotates each natted entry of a buffer the core built with the
// remaining route TTL toward it ("TTLs are exchanged by peers together with
// their views", §4). Entry 0 is the peer's own fresh descriptor and carries
// none; the core wrote every entry whole, so an unannotated one reads 0.
func (n *Nylon) withTTLs(now int64, m *wire.Message) *wire.Message {
	for i := 1; i < len(m.Entries); i++ {
		e := &m.Entries[i]
		if !e.Desc.Class.Natted() {
			continue
		}
		if ttl := n.routes.TTL(e.Desc.ID, now); ttl > 0 {
			e.RouteTTL = uint32(ttl)
		}
	}
	return m
}

// request is the core's REQUEST with route TTLs attached.
func (n *Nylon) request(now int64, target view.Descriptor) *wire.Message {
	return n.withTTLs(now, n.gossip.request(target))
}

// installRoutes records RVP routes for received (or snooped) natted view
// entries: the next hop toward each of them is the peer that physically
// handed us the message, and the TTL is the advertised remainder capped by
// the hole lifetime and discounted by the latency bound.
func (n *Nylon) installRoutes(now int64, entries []wire.ViewEntry, via view.Descriptor) {
	for _, e := range entries {
		if !e.Desc.Class.Natted() || e.RouteTTL == 0 || e.Desc.ID == n.cfg.Self.ID {
			continue
		}
		ttl := int64(e.RouteTTL)
		if ttl > n.cfg.HoleTimeout {
			ttl = n.cfg.HoleTimeout
		}
		ttl -= n.cfg.LatencyBound
		if ttl <= 0 {
			continue
		}
		n.routes.Set(e.Desc.ID, via, now+ttl)
	}
}

// relayInitiate is the condition of Fig. 6 line 5: the initiator must relay
// the REQUEST when the target is symmetric and it is port-restricted, or when
// it is itself symmetric — hole punching cannot serve those combinations.
func relayInitiate(self, target view.Descriptor) bool {
	return (target.Class == ident.Symmetric && self.Class == ident.PortRestrictedCone) ||
		self.Class == ident.Symmetric
}

// relayRespond is the condition of Fig. 6 line 20: the responder sends the
// RESPONSE back along the RVP chain when either side is symmetric and the
// other is not public.
func relayRespond(self, src view.Descriptor) bool {
	return (src.Class == ident.Symmetric && self.Class != ident.Public) ||
		(self.Class == ident.Symmetric && src.Class != ident.Public)
}

// Tick implements Engine: Fig. 6 lines 1-14.
func (n *Nylon) Tick(now int64) []Send {
	// Purge on a thinned cadence (see purgeEvery): expired rows are already
	// invisible to every read, so reclaiming them is pure memory hygiene.
	n.tick++
	if n.tick%purgeEvery == 0 {
		n.routes.Purge(now)
	}
	// Hole punches from previous periods are void: each PONG must map to a
	// punch from the current round.
	n.pending = n.pending[:0]
	// A target that never answered is a dead peer or a broken chain.
	n.expire(n.cfg.EvictUnanswered)
	defer n.view.IncreaseAge()

	target, ok := n.pick()
	if !ok {
		return nil
	}
	self := n.Self()

	if addr, ok := n.reachableDirect(target, now); ok {
		// Fig. 6 line 3: target public or next_RVP(target) = target.
		return n.one(Send{To: addr, ToID: target.ID, Msg: n.request(now, target)})
	}
	hop, ok := n.resolveHop(target, now)
	if !ok {
		n.stats.NoRoute++
		return nil
	}
	if relayInitiate(self, target) {
		// Fig. 6 lines 5-7: relay the REQUEST itself along the chain.
		n.stats.Relayed++
		return n.one(toPeer(hop, n.request(now, target)))
	}
	// Fig. 6 lines 8-12: reactive hole punching.
	n.stats.HolePunchesStarted++
	n.pending = append(n.pending, target.ID)
	out := n.one(toPeer(hop, newMsg(n.cfg.Msgs, wire.KindOpenHole, self, target, self)))
	if self.Class.Natted() {
		// The PING opens our own NAT toward the target; the target's NAT
		// will normally drop it, which is fine.
		out = append(out, toPeer(target, newMsg(n.cfg.Msgs, wire.KindPing, self, target, self)))
	}
	n.sh.out = out
	return out
}

// Receive implements Engine: Fig. 6 lines 15-46.
func (n *Nylon) Receive(now int64, from ident.Endpoint, msg *wire.Message) []Send {
	// update_next_RVP(p, p, HOLE_TIMEOUT): the transport sender reached us,
	// so a direct return path exists. Record its observed endpoint.
	via := msg.Via
	via.Addr = from
	n.routes.SetDirect(via, now+n.cfg.HoleTimeout)
	// Reverse-path learning: the originator is reachable back through the
	// peer that handed us this datagram.
	if msg.Src.ID != via.ID {
		n.routes.Set(msg.Src.ID, via, now+n.cfg.HoleTimeout-n.cfg.LatencyBound)
	}

	if n.inTransit(msg) {
		return n.forward(now, msg, via)
	}
	switch msg.Kind {
	case wire.KindRequest:
		return n.handleRequest(now, from, msg, via)
	case wire.KindResponse:
		if via.ID != msg.Src.ID {
			n.stats.ChainHopsTotal += uint64(msg.Hops)
			n.stats.ChainSamples++
		}
		n.completed(msg)
		n.installRoutes(now, msg.Entries, via)
	case wire.KindOpenHole:
		// Fig. 6 lines 37-38: we are the hole-punch target; answer the
		// originator directly so both NATs now hold matching rules.
		n.stats.ChainHopsTotal += uint64(msg.Hops) + 1
		n.stats.ChainSamples++
		return n.pong(msg.Src.Addr, msg)
	case wire.KindPing:
		// Fig. 6 lines 41-43: reply to the observed endpoint.
		return n.pong(from, msg)
	case wire.KindPong:
		// Fig. 6 lines 44-46: the hole is open; gossip through it. Only
		// punches from the current period are honoured.
		if n.pending.take(msg.Src.ID) {
			n.stats.HolePunchesCompleted++
			return n.one(Send{To: from, ToID: msg.Src.ID, Msg: n.request(now, msg.Src)})
		}
	}
	return nil
}

// handleRequest processes a shuffle REQUEST addressed to this peer
// (Fig. 6 lines 15-26).
func (n *Nylon) handleRequest(now int64, from ident.Endpoint, msg *wire.Message, via view.Descriptor) []Send {
	if via.ID != msg.Src.ID {
		n.stats.ChainHopsTotal += uint64(msg.Hops)
		n.stats.ChainSamples++
	}
	out := n.sh.out[:0]
	resp, sent := n.response(msg)
	switch {
	case resp == nil:
	case relayRespond(n.cfg.Self, msg.Src):
		// Fig. 6 lines 20-22: the response must travel back along the
		// chain.
		if hop, ok := n.resolveHop(msg.Src, now); ok {
			if hop.ID != msg.Src.ID {
				n.stats.Relayed++
			}
			out = append(out, toPeer(hop, n.withTTLs(now, resp)))
		} else {
			n.stats.NoRoute++
			n.cfg.Msgs.Put(resp)
		}
	default:
		// Fig. 6 lines 23-24. When the request arrived directly the
		// observed endpoint is the right return path; otherwise the
		// initiator punched a hole toward us and awaits us at its
		// advertised address.
		addr := msg.Src.Addr
		if via.ID == msg.Src.ID {
			addr = from
		}
		out = append(out, Send{To: addr, ToID: msg.Src.ID, Msg: n.withTTLs(now, resp)})
	}
	n.answered(msg, sent)
	n.installRoutes(now, msg.Entries, via)
	n.sh.out = out
	return out
}

// forward relays a datagram one hop along the RVP chain (Fig. 6 lines 17-19,
// 29-31, 39-40), snooping carried view entries so the chain invariant holds
// for routes learned through relayed shuffles.
func (n *Nylon) forward(now int64, msg *wire.Message, via view.Descriptor) []Send {
	if msg.Hops >= maxForwardHops {
		// Counted as NoRoute (the chain is unusable) and separately as a
		// hop-limit drop, so adversarial forwarding loops are observable.
		n.stats.NoRoute++
		n.stats.HopLimitDrops++
		return nil
	}
	n.installRoutes(now, msg.Entries, via)
	hop, ok := n.resolveHop(msg.Dst, now)
	if !ok || hop.ID == via.ID {
		// No live chain — or our best route points straight back where
		// the datagram came from, which would only bounce it between
		// the two of us until the hop limit (routes learned from
		// entries circulating in both directions can form such
		// two-cycles). Dropping wastes one gossip round; looping
		// wastes maxForwardHops datagrams.
		n.stats.NoRoute++
		return nil
	}
	n.stats.Forwarded++
	fwd := n.cfg.Msgs.Clone(msg)
	fwd.Hops++
	fwd.Via = n.Self()
	return n.one(toPeer(hop, fwd))
}
