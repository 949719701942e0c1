// Package core implements the gossip peer-sampling protocol engines of the
// Nylon paper as sans-IO state machines. The paper presents Nylon (Fig. 6) as
// the generic protocol of Fig. 1 plus traversal, and so does this package:
// the unexported gossip type is Fig. 1 — view, shuffle buffer, swapper
// bookkeeping, answering a REQUEST, merging a RESPONSE, no-reply eviction —
// and each engine embeds it and adds only how it gets a datagram past a NAT:
//
//   - Generic: Fig. 1 and nothing else, configurable along the three
//     dimensions of Section 3 (target selection, view propagation, view
//     merging). It is NAT-oblivious: its messages get dropped by NAT devices,
//     which is exactly the pathology Figures 2-4 of the paper measure.
//   - Nylon: the NAT-resilient protocol of Fig. 6, with reactive hole
//     punching over chains of rendez-vous peers (RVPs).
//   - ARRG: the reachable-peer-cache baseline of Drost et al. [6], the only
//     prior gossip work handling NATs the paper cites.
//   - StaticRVP: the strawman dismissed in Section 4's introduction, where
//     every natted peer is bound to one fixed public rendez-vous peer.
//
// What every engine takes from the core (F1 = Fig. 1, F6 = Fig. 6, by line)
// and what each adds:
//
//	                 Generic       ARRG            StaticRVP              Nylon
//	period opening   evict         always evict,   evict, void punches,   evict, void punches,
//	(F1:1-7)                       cache fallback  keepalive PING         purge routes
//	buffer           core          core            core                   core + route TTLs (§4)
//	REQUEST routing  to target     to target       direct if public, or   direct (F6:3), relayed on the
//	(F1:1-7)                                       via target's RVP:      chain (F6:5-7), or OPEN_HOLE +
//	                                               punch, relay if SYM    PING, REQUEST on PONG (F6:8-12)
//	RESPONSE routing observed      observed        observed if direct,    chain (F6:20-22), observed or
//	(F1:8-12)        endpoint      endpoint        else initiator's RVP   advertised endpoint (F6:23-24)
//	extra state      none          cache           own RVP, clients,      routes, punches, tick
//	                                               punches
//
// One rule sits in the core for all four: a target is "unanswered" only when
// an answer was expected, so under push-only propagation nothing is evicted
// and ARRG's fallback never fires.
//
// Engines are driven by a host (the discrete-event simulator or the
// real-time runtime): the host calls Tick once per shuffling period and
// Receive for each delivered datagram; engines return Send commands and never
// perform IO, so the same code runs under virtual and real time.
package core

import (
	"math/rand"

	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/rt"
	"repro/internal/view"
	"repro/internal/wire"
)

// Shared is state an engine may share with every other engine whose calls
// are serialized on one goroutine — in the simulator, all engines of one
// shard. It exists purely for memory: at simulation scale the per-engine
// exchange scratch and descriptor copies dominate the heap, and almost all
// of it is only live during a single engine call. Sharing changes nothing
// observable (the per-shard equivalence tests pin it).
//
// A nil Config.Shared gives the engine private instances, which is the right
// default for real nodes and unit tests.
type Shared struct {
	// Routes is the row storage of the shard's Nylon routing tables: the
	// descriptor intern table (one stored copy per distinct descriptor
	// instead of one per routing row) and the row chunks that tables hand
	// back when they shrink and take again when they grow.
	Routes *rt.Store
	// View is the view-exchange working scratch.
	View *view.Scratch
	// Per-call scratch: the responder-side swapper buffer, the received
	// descriptors, and the returned command slice. None of them outlive one
	// engine call (the initiator-side buffer, which must survive until the
	// RESPONSE arrives, stays per-engine).
	resp []view.Descriptor
	recv []view.Descriptor
	out  []Send
}

// NewShared returns an empty Shared ready to hand to every engine of one
// shard.
func NewShared() *Shared {
	return &Shared{Routes: rt.NewStore(&intern.Descriptors{}), View: &view.Scratch{}}
}

// Send instructs the host to transmit one datagram to a transport endpoint.
type Send struct {
	// To is the transport-level destination of the datagram. It may be a
	// relay rather than Msg.Dst.
	To ident.Endpoint
	// ToID identifies the intended transport-level recipient, for tracing
	// and metrics; the network delivers by endpoint only.
	ToID ident.NodeID
	// Msg is the datagram. The engine relinquishes ownership.
	Msg *wire.Message
}

// Engine is a peer-sampling protocol instance for one peer.
//
// Ownership contract, shared by all implementations: the []Send slice
// returned by Tick and Receive is scratch storage reused by the engine — it
// is valid only until the engine's next method call and must be consumed
// (or copied) before then. The messages it carries are freshly drawn from
// Config.Msgs; ownership passes to the host, which may put them back into
// that pool once fully consumed. Conversely, the message
// passed to Receive is only borrowed: the engine retains no reference to it
// or to its Entries once Receive returns.
type Engine interface {
	// Self returns the peer's own current descriptor (age zero).
	Self() view.Descriptor
	// View returns the peer's partial view. Callers must treat it as
	// read-only; the engine owns it.
	View() *view.View
	// Tick runs one shuffling period: select a gossip target, emit the
	// messages that start the exchange, age the view.
	Tick(now int64) []Send
	// Receive processes one datagram delivered at the given time from the
	// given transport endpoint.
	Receive(now int64, from ident.Endpoint, msg *wire.Message) []Send
	// Stats exposes the engine's monotonic counters.
	Stats() *Stats
}

// newMsg draws a message from the given pool and stamps its routing header.
func newMsg(p *wire.Pool, kind wire.Kind, src, dst, via view.Descriptor) *wire.Message {
	m := p.Get()
	m.Kind, m.Src, m.Dst, m.Via = kind, src, dst, via
	return m
}

// Stats counts protocol events. All counters are monotonic; hosts snapshot
// and diff them. The fields deliberately mirror the metrics of the paper's
// evaluation section.
type Stats struct {
	// ShufflesInitiated counts Tick calls that selected a target.
	ShufflesInitiated uint64
	// ShufflesCompleted counts merged RESPONSEs (push/pull) at the
	// initiator.
	ShufflesCompleted uint64
	// ShufflesAnswered counts REQUESTs merged at the responder.
	ShufflesAnswered uint64
	// NoRoute counts initiations or forwards abandoned because no live RVP
	// route existed.
	NoRoute uint64
	// Forwarded counts datagrams relayed for other peers (RVP load).
	Forwarded uint64
	// HolePunchesStarted counts OPEN_HOLE messages originated.
	HolePunchesStarted uint64
	// HolePunchesCompleted counts PONGs received in response.
	HolePunchesCompleted uint64
	// Relayed counts REQUEST/RESPONSE exchanges that had to be relayed
	// end-to-end (symmetric NAT cases).
	Relayed uint64
	// ChainHopsTotal and ChainSamples accumulate the RVP chain length
	// observed at the destination of OPEN_HOLE and relayed REQUEST
	// messages (Fig. 9: "average number of RVPs towards a natted
	// destination").
	ChainHopsTotal uint64
	ChainSamples   uint64
	// CacheFallbacks counts ARRG shuffle retries served from the cache.
	CacheFallbacks uint64
	// HopLimitDrops counts relayed datagrams discarded at the forwarding
	// hop limit (maxForwardHops) — the loop guard that keeps a lying or
	// misrouting relay from circulating a datagram indefinitely.
	HopLimitDrops uint64
	// RelayDenied counts datagrams an adversarial relay silently refused to
	// forward (internal/adversary's lying-RVP strategy; always zero for
	// honest engines).
	RelayDenied uint64
	// AdversaryDrops counts datagrams an adversarial selective dropper
	// swallowed (internal/adversary; always zero for honest engines).
	AdversaryDrops uint64
}

// Config carries the parameters shared by all engines. The zero value is not
// usable; fill every field.
type Config struct {
	// Self is the peer's own descriptor: identity, advertised contact
	// endpoint (the NAT mapping for natted peers), NAT class.
	Self view.Descriptor
	// ViewSize is the maximum partial view size (paper default: 15).
	ViewSize int
	// Selection is the gossip target selection policy.
	Selection view.Selection
	// Merge is the view merging policy.
	Merge view.Merge
	// PushPull selects push/pull view propagation; false means push only.
	PushPull bool
	// HoleTimeout is the NAT filtering rule lifetime in milliseconds
	// (paper: 90 s). Nylon uses it as the TTL of fresh routing entries.
	HoleTimeout int64
	// LatencyBound is the assumed upper bound on one-way message latency
	// in milliseconds; Nylon discounts relayed route TTLs by it (paper §4:
	// "the TTL mechanism assumes a known upper bound on the latency").
	LatencyBound int64
	// RNG drives every random choice of the engine. Each engine must get
	// its own instance; engines never fall back to global randomness.
	RNG *rand.Rand
	// EvictUnanswered removes a shuffle target from the view when it has
	// not answered by the next period, as the reference implementation of
	// Jelasity et al. (TOCS 2007) does on timeout. The paper's Fig. 1 and
	// Fig. 6 pseudocode omit it, so it defaults off for fidelity; turning
	// it on sharply accelerates recovery from churn (ablation A5).
	EvictUnanswered bool
	// Msgs is the message pool the engine allocates from (and releases
	// to). The sharded simulator hands every engine its shard's
	// single-owner pool so message recycling never crosses cores; nil
	// allocates every message and recycles none (see wire.Pool).
	Msgs *wire.Pool
	// Shared, when non-nil, is the per-shard shared scratch and intern
	// state (see Shared). All engines handed the same instance must have
	// their calls serialized on one goroutine.
	Shared *Shared
}

func (c Config) validate() {
	if c.Self.ID.IsNil() {
		panic("core: Config.Self.ID is nil")
	}
	if c.ViewSize <= 0 {
		panic("core: Config.ViewSize must be positive")
	}
	if c.RNG == nil {
		panic("core: Config.RNG is nil")
	}
}

// maxForwardHops bounds RVP chain forwarding so that routing loops (possible
// transiently with stale tables) cannot circulate messages forever. The
// paper observes chains of fewer than 4 relays on average; 32 is far beyond
// any useful chain.
const maxForwardHops = 32
