// Package adversary implements deterministic Byzantine peer models as
// decorators over the honest protocol engines of internal/core. A wrapper
// intercepts the host-facing Engine surface — it mutates outgoing shuffles
// or swallows incoming datagrams — while the wrapped engine keeps running
// the honest protocol underneath, so an adversarial peer stays a fully
// functioning overlay member in every respect except its attack.
//
// Four Strategy values are modeled, the classic attacks on gossip peer sampling
// and rendez-vous relaying:
//
//   - PoisonView: stuffs every outgoing REQUEST/RESPONSE with the descriptors
//     of a fixed colluder set (forever-fresh, with forged route TTLs),
//     mounting an eclipse/hub attack on the sampling layer.
//   - LyingRVP: advertises reachability and routes like any honest peer but
//     silently refuses to relay — every datagram not addressed to it is
//     swallowed.
//   - SelectiveDrop: swallows incoming datagrams by message kind and/or by
//     victim (source or final destination).
//   - FreeRide: pulls views but never pushes fresh descriptors beyond its
//     own, starving the dissemination it benefits from.
//
// Every wrapper is a pure function of (Config, per-peer seed): its only
// randomness is a private seed-derived stream, so worker/shard invariance
// and bit-identical replay of the simulation are preserved.
package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/snapshot"
	"repro/internal/view"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Strategy selects the attack a wrapper mounts.
type Strategy uint8

// Strategies.
const (
	// None is the honest null strategy; Wrap returns the inner engine
	// unchanged, so honest peers never pay for the adversary layer.
	None Strategy = iota
	// PoisonView stuffs outgoing shuffle buffers with the colluder set.
	PoisonView
	// LyingRVP refuses to forward datagrams addressed to other peers.
	LyingRVP
	// SelectiveDrop swallows incoming datagrams by kind and/or victim.
	SelectiveDrop
	// FreeRide strips every outgoing shuffle buffer down to the peer's own
	// descriptor.
	FreeRide
)

// String implements fmt.Stringer, matching ParseStrategy's names.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case PoisonView:
		return "poison-view"
	case LyingRVP:
		return "lying-rvp"
	case SelectiveDrop:
		return "selective-drop"
	case FreeRide:
		return "free-ride"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy parses a strategy name as printed by Strategy.String.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "none":
		return None, nil
	case "poison-view":
		return PoisonView, nil
	case "lying-rvp":
		return LyingRVP, nil
	case "selective-drop":
		return SelectiveDrop, nil
	case "free-ride":
		return FreeRide, nil
	}
	return 0, fmt.Errorf("adversary: unknown strategy %q (want poison-view, lying-rvp, selective-drop or free-ride)", s)
}

// KindMask is a bit set of wire message kinds. The zero mask means "every
// kind" — the natural default for a dropper with no kind filter.
type KindMask uint8

// MaskOf returns the mask selecting exactly the given kinds.
func MaskOf(kinds ...wire.Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << (k - 1)
	}
	return m
}

// Has reports whether the mask selects the kind; the zero mask selects all.
func (m KindMask) Has(k wire.Kind) bool {
	return m == 0 || m&(1<<(k-1)) != 0
}

// ParseKinds builds a mask from kind names (request, response, open-hole,
// ping, pong). An empty list yields the zero mask (every kind).
func ParseKinds(names []string) (KindMask, error) {
	var m KindMask
	for _, n := range names {
		switch n {
		case "request":
			m |= MaskOf(wire.KindRequest)
		case "response":
			m |= MaskOf(wire.KindResponse)
		case "open-hole":
			m |= MaskOf(wire.KindOpenHole)
		case "ping":
			m |= MaskOf(wire.KindPing)
		case "pong":
			m |= MaskOf(wire.KindPong)
		default:
			return 0, fmt.Errorf("adversary: unknown message kind %q (want request, response, open-hole, ping or pong)", n)
		}
	}
	return m, nil
}

// ColluderSet is the shared roster of a run's view poisoners: the entries
// every poisoner stuffs into its outgoing shuffles. Descriptors are stored
// forever-young (age zero) with forged route TTLs, which is the attack —
// honest merge policies cannot age them out.
//
// The set is shared, append-only state: the harness appends at barriers
// (peer creation, scenario joins) and wrappers only read it mid-window, so
// sharded simulation needs no locking.
type ColluderSet struct {
	entries []wire.ViewEntry
	ids     map[ident.NodeID]bool
}

// NewColluderSet returns an empty set.
func NewColluderSet() *ColluderSet {
	return &ColluderSet{ids: make(map[ident.NodeID]bool)}
}

// Add registers one colluder: its descriptor (stored at age zero) and the
// route TTL poisoners will advertise for it (zero for public colluders).
// Adding an already-present ID is a no-op.
func (c *ColluderSet) Add(d view.Descriptor, routeTTL uint32) {
	if c.ids[d.ID] {
		return
	}
	d.Age = 0
	c.entries = append(c.entries, wire.ViewEntry{Desc: d, RouteTTL: routeTTL})
	c.ids[d.ID] = true
}

// Contains reports whether the peer is a registered colluder.
func (c *ColluderSet) Contains(id ident.NodeID) bool {
	if c == nil {
		return false
	}
	return c.ids[id]
}

// Len returns the number of registered colluders.
func (c *ColluderSet) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Config parameterizes one adversarial wrapper. Together with the per-peer
// seed handed to Wrap it fully determines the wrapper's behavior.
type Config struct {
	// Strategy selects the attack; None disables wrapping entirely.
	Strategy Strategy
	// ActiveAt is the virtual time (milliseconds) from which the attack is
	// mounted; before it the wrapper is a transparent pass-through, so
	// sleeper cohorts can activate mid-run.
	ActiveAt int64
	// Colluders is the shared roster a PoisonView wrapper stuffs into its
	// shuffles (ignored by the other attacks).
	Colluders *ColluderSet
	// DropKinds restricts SelectiveDrop to these kinds (zero: every kind).
	DropKinds KindMask
	// Victims, when non-empty, restricts SelectiveDrop to datagrams whose
	// source or final destination is listed.
	Victims map[ident.NodeID]bool
}

// Engine is the adversarial decorator. It satisfies core.Engine and
// preserves the interface's ownership contract: returned []Send slices are
// the inner engine's scratch (possibly with mutated messages), and swallowed
// incoming messages are simply not acted upon — they stay owned by the host,
// exactly as if the engine had ignored them.
type Engine struct {
	inner core.Engine
	cfg   Config
	rng   *rand.Rand
	// src is rng's underlying source, kept so checkpoints can capture and
	// replay the wrapper's private stream (see State).
	src  *xrand.SplitMix64
	self ident.NodeID
}

// Wrap decorates an honest engine with the configured strategy, seeding the
// wrapper's private RNG stream from seed. A None strategy returns inner
// itself — the nil-adversary path allocates nothing.
func Wrap(inner core.Engine, cfg Config, seed int64) core.Engine {
	if cfg.Strategy == None {
		return inner
	}
	src := xrand.NewSource(seed)
	return &Engine{inner: inner, cfg: cfg, rng: rand.New(src), src: src, self: inner.Self().ID}
}

// State walks the wrapper's own checkpoint state, the position of its private
// RNG stream; the honest engine behind it (see Unwrap) walks its own.
func (e *Engine) State(c *snapshot.Codec) { e.src.SetState(c.U64(e.src.State())) }

// Unwrap returns the honest engine behind e, or e itself when unwrapped.
// Hosts that type-switch on concrete engines (bootstrap, metrics) use it to
// see through the adversary layer.
func Unwrap(e core.Engine) core.Engine {
	if w, ok := e.(*Engine); ok {
		return w.inner
	}
	return e
}

// Self implements core.Engine.
func (e *Engine) Self() view.Descriptor { return e.inner.Self() }

// View implements core.Engine.
func (e *Engine) View() *view.View { return e.inner.View() }

// Stats implements core.Engine. Adversarial drops are counted into the
// inner engine's Stats (RelayDenied, AdversaryDrops), so hosts aggregate
// them like any protocol counter.
func (e *Engine) Stats() *core.Stats { return e.inner.Stats() }

// Tick implements core.Engine: the honest tick, with outgoing shuffles
// mutated once the attack is active.
func (e *Engine) Tick(now int64) []core.Send {
	outs := e.inner.Tick(now)
	if now < e.cfg.ActiveAt {
		return outs
	}
	return e.mutateOutgoing(outs)
}

// Receive implements core.Engine. An active LyingRVP or SelectiveDrop may
// swallow the datagram before the honest engine sees it; everything else is
// processed honestly and the replies mutated like Tick output.
func (e *Engine) Receive(now int64, from ident.Endpoint, msg *wire.Message) []core.Send {
	if now >= e.cfg.ActiveAt && e.swallow(msg) {
		return nil
	}
	outs := e.inner.Receive(now, from, msg)
	if now < e.cfg.ActiveAt {
		return outs
	}
	return e.mutateOutgoing(outs)
}

// swallow decides whether an incoming datagram is silently dropped.
func (e *Engine) swallow(msg *wire.Message) bool {
	switch e.cfg.Strategy {
	case LyingRVP:
		// Refuse every relay: anything whose final recipient is another
		// peer. Traffic addressed to the RVP itself — including the
		// shuffles that keep its routes advertised — is served honestly,
		// which is what makes the lie durable.
		if msg.Dst.ID != e.self {
			e.inner.Stats().RelayDenied++
			return true
		}
	case SelectiveDrop:
		if !e.cfg.DropKinds.Has(msg.Kind) {
			return false
		}
		if len(e.cfg.Victims) > 0 && !e.cfg.Victims[msg.Src.ID] && !e.cfg.Victims[msg.Dst.ID] {
			return false
		}
		e.inner.Stats().AdversaryDrops++
		return true
	}
	return false
}

// mutateOutgoing rewrites the shuffle buffers of the outgoing commands in
// place. Only REQUEST/RESPONSE carry views; everything else passes through.
// Mutating the returned messages is safe under the Engine ownership
// contract: the messages are pool-fresh and owned by whoever consumes the
// slice, and the inner engine's exchange bookkeeping holds its own
// descriptor copies, never the message entries.
func (e *Engine) mutateOutgoing(outs []core.Send) []core.Send {
	if e.cfg.Strategy != PoisonView && e.cfg.Strategy != FreeRide {
		return outs
	}
	for _, s := range outs {
		if s.Msg.Kind != wire.KindRequest && s.Msg.Kind != wire.KindResponse {
			continue
		}
		switch e.cfg.Strategy {
		case PoisonView:
			e.poison(s.Msg)
		case FreeRide:
			s.Msg.Entries = s.Msg.Entries[:selfPrefix(s.Msg, e.self)]
		}
	}
	return outs
}

// selfPrefix returns 1 when the buffer leads with the peer's own descriptor
// (every honest engine puts self first), else 0.
func selfPrefix(m *wire.Message, self ident.NodeID) int {
	if len(m.Entries) > 0 && m.Entries[0].Desc.ID == self {
		return 1
	}
	return 0
}

// poison replaces the message's shuffle buffer (beyond the peer's own
// leading descriptor) with colluder entries: distinct colluders starting at
// a random offset of the roster, up to the honest buffer size — so poisoned
// messages are indistinguishable from honest ones by shape.
func (e *Engine) poison(m *wire.Message) {
	cs := e.cfg.Colluders
	if cs.Len() == 0 {
		return
	}
	keep := selfPrefix(m, e.self)
	want := e.inner.View().ExchangeLen()
	if n := len(m.Entries) - keep; want < n {
		want = n // never shrink: keep the honest buffer's shape
	}
	m.Entries = m.Entries[:keep]
	n := cs.Len()
	off := 0
	if n > 1 {
		off = e.rng.Intn(n)
	}
	for i := 0; i < n && want > 0; i++ {
		ent := cs.entries[(off+i)%n]
		if ent.Desc.ID == e.self {
			continue
		}
		m.Entries = append(m.Entries, ent)
		want--
	}
}
