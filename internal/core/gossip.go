package core

import (
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// gossip is the protocol of Fig. 1 — the part all four engines share. Each
// engine embeds it by value and adds only how it gets a datagram past a NAT;
// every view mutation, every RNG draw of the shuffle and every swapper
// bookkeeping step lives here, once.
type gossip struct {
	cfg  Config
	view *view.View
	// pendingSent remembers the buffer shipped with the round's REQUEST so
	// the swapper policy can discard exactly those entries when the
	// RESPONSE arrives; pendingTarget is the shuffle partner that must
	// answer before the next period or be evicted from the view (see
	// expire).
	pendingSent   []view.Descriptor
	pendingTarget ident.NodeID
	stats         Stats
	// reqSent backs pendingSent across rounds (it must survive until the
	// RESPONSE arrives), so it stays per-engine; the per-call scratch — the
	// responder-side swapper buffer, the received descriptors, the returned
	// command slice — lives in sh, shared across the shard's engines.
	reqSent []view.Descriptor
	sh      *Shared
}

// newGossip builds the shared core. It panics on an invalid Config.
func newGossip(cfg Config) gossip {
	cfg.validate()
	sh := cfg.Shared
	if sh == nil {
		sh = NewShared()
	}
	return gossip{cfg: cfg, sh: sh, view: view.NewShared(cfg.Self.ID, cfg.ViewSize, sh.View)}
}

// Self implements Engine.
func (g *gossip) Self() view.Descriptor { return g.cfg.Self.Fresh() }

// View implements Engine.
func (g *gossip) View() *view.View { return g.view }

// Stats implements Engine.
func (g *gossip) Stats() *Stats { return &g.stats }

// Bootstrap seeds the view with initial descriptors (at most ViewSize). The
// time is unused here: it is in the signature so that hosts seed all four
// engines alike (Nylon's own Bootstrap stamps routes with it).
func (g *gossip) Bootstrap(now int64, ds []view.Descriptor) {
	for _, d := range ds {
		g.view.Add(d)
	}
}

// expire opens a period: when evict is set and last period's target never
// answered, it is removed from the view — the no-reply eviction of the
// reference framework of Jelasity et al. (TOCS 2007), and with NATs or churn
// in the way the only thing that ever clears stale entries. It reports
// whether a target had gone unanswered. "Unanswered" only means something
// when an answer was expected: under push-only propagation no RESPONSE ever
// comes, so nothing is evicted and nothing reported.
func (g *gossip) expire(evict bool) bool {
	unanswered := evict && g.cfg.PushPull && !g.pendingTarget.IsNil()
	if unanswered {
		g.view.Remove(g.pendingTarget)
	}
	g.pendingTarget = ident.Nil
	return unanswered
}

// pick selects the period's gossip target and records it as the peer that
// owes an answer. The second result is false on an empty view.
func (g *gossip) pick() (view.Descriptor, bool) {
	target, ok := g.view.Select(g.cfg.Selection, g.cfg.RNG)
	if ok {
		g.stats.ShufflesInitiated++
		g.pendingTarget = target.ID
	}
	return target, ok
}

// buffer fills m's entries with the shuffle buffer: the peer's fresh
// descriptor plus the exchange half of its view. The raw descriptors shipped
// are appended to buf and returned (for the swapper bookkeeping).
func (g *gossip) buffer(m *wire.Message, buf []view.Descriptor) []view.Descriptor {
	sent := g.view.PrepareExchangeInto(g.cfg.Merge, g.cfg.RNG, buf)
	m.Entries = append(m.Entries[:0], wire.ViewEntry{Desc: g.Self()})
	for _, d := range sent {
		m.Entries = append(m.Entries, wire.ViewEntry{Desc: d})
	}
	return sent
}

// request builds a REQUEST for target and remembers what it ships. Only the
// latest buffer matters for the swapper bookkeeping, so a second request in
// one period (ARRG's cache fallback) overwrites the first.
func (g *gossip) request(target view.Descriptor) *wire.Message {
	self := g.Self()
	msg := newMsg(g.cfg.Msgs, wire.KindRequest, self, target, self)
	g.reqSent = g.buffer(msg, g.reqSent[:0])
	g.pendingSent = g.reqSent
	return msg
}

// response builds the RESPONSE to req and returns it with the descriptors it
// ships; both are nil under push-only propagation. It must run before
// answered: the buffer is drawn from the view as it was when the REQUEST
// arrived.
func (g *gossip) response(req *wire.Message) (*wire.Message, []view.Descriptor) {
	if !g.cfg.PushPull {
		return nil, nil
	}
	self := g.Self()
	resp := newMsg(g.cfg.Msgs, wire.KindResponse, self, req.Src, self)
	g.sh.resp = g.buffer(resp, g.sh.resp[:0])
	return resp, g.sh.resp
}

// answered merges a REQUEST addressed to this peer; sent is what response
// shipped back.
func (g *gossip) answered(req *wire.Message, sent []view.Descriptor) {
	g.sh.recv = req.AppendDescriptors(g.sh.recv[:0])
	g.view.ApplyExchange(g.cfg.Merge, g.sh.recv, sent, g.cfg.RNG)
	g.view.IncreaseAge()
	g.stats.ShufflesAnswered++
}

// completed merges the RESPONSE that closes this peer's own shuffle.
func (g *gossip) completed(resp *wire.Message) {
	if resp.Src.ID == g.pendingTarget {
		g.pendingTarget = ident.Nil
	}
	g.sh.recv = resp.AppendDescriptors(g.sh.recv[:0])
	g.view.ApplyExchange(g.cfg.Merge, g.sh.recv, g.pendingSent, g.cfg.RNG)
	g.pendingSent = nil
	g.stats.ShufflesCompleted++
}

// exchange is the NAT-oblivious Receive of Fig. 1, lines 8-12: a REQUEST is
// merged and answered to the observed transport endpoint — the requester's
// NAT session toward us admits exactly this return path — and a RESPONSE is
// merged. The baseline protocol has no other message kinds; they are ignored.
func (g *gossip) exchange(from ident.Endpoint, msg *wire.Message) []Send {
	switch msg.Kind {
	case wire.KindRequest:
		resp, sent := g.response(msg)
		g.answered(msg, sent)
		if resp != nil {
			return g.one(Send{To: from, ToID: msg.Src.ID, Msg: resp})
		}
	case wire.KindResponse:
		g.completed(msg)
	}
	return nil
}

// inTransit reports whether msg is a datagram for a rendez-vous peer to pass
// on: one of the kinds that travel over RVPs (REQUEST, RESPONSE, OPEN_HOLE)
// addressed to someone else. Any other kind is handled or ignored here,
// whoever it names.
func (g *gossip) inTransit(msg *wire.Message) bool {
	k := msg.Kind
	return msg.Dst.ID != g.cfg.Self.ID && (k == wire.KindRequest || k == wire.KindResponse || k == wire.KindOpenHole)
}

// one returns the shared command slice holding the single datagram s.
func (g *gossip) one(s Send) []Send {
	g.sh.out = append(g.sh.out[:0], s)
	return g.sh.out
}

// pong answers msg's originator with a PONG at the given endpoint.
func (g *gossip) pong(to ident.Endpoint, msg *wire.Message) []Send {
	self := g.Self()
	return g.one(Send{To: to, ToID: msg.Src.ID, Msg: newMsg(g.cfg.Msgs, wire.KindPong, self, msg.Src, self)})
}

// toPeer addresses m to d's advertised (or learned) endpoint.
func toPeer(d view.Descriptor, m *wire.Message) Send {
	return Send{To: d.Addr, ToID: d.ID, Msg: m}
}

// punches tracks the hole punches started this period, so a PONG triggers
// exactly one REQUEST (the pseudocode would answer every PONG). It holds at
// most a couple of IDs, so a slice beats a map.
type punches []ident.NodeID

// take reports whether a punch toward id is outstanding, removing it when
// found.
func (p *punches) take(id ident.NodeID) bool {
	s := *p
	for i := range s {
		if s[i] == id {
			s[i] = s[len(s)-1]
			*p = s[:len(s)-1]
			return true
		}
	}
	return false
}
