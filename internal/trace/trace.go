// Package trace records protocol-level events (transmissions, deliveries,
// drops) into bounded per-shard ring buffers and reconstructs causal
// forwarding chains from them. Tracing is opt-in and cheap enough to leave
// wired into the simulator: a nil *Ring (or nil *Sharded) records nothing
// and recording never allocates.
//
// Every event carries the scheduler key (time, actor, seq) of the simulation
// event that produced it, plus a Sub ordinal for multiple records under one
// key. Per-shard rings are written lock-free (each shard writes only its
// own ring) and are individually key-sorted, because a shard executes its
// events in key order; merging the rings by (At, Actor, Seq, Sub) therefore
// reconstructs the exact global order a single-shard run would have
// recorded, for any worker or shard count.
package trace

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/ident"
)

// Op classifies an event.
type Op uint8

// Event operations. The drop variants are generated from the DropCauses
// table in drops.go — add new drop kinds there, not here.
const (
	// OpSend is a datagram leaving a peer.
	OpSend Op = iota + 1
	// OpDeliver is a datagram reaching a peer's engine.
	OpDeliver
	// OpDropNAT is a datagram refused by a NAT filter.
	OpDropNAT
	// OpDropAddr is a datagram addressed to nobody.
	OpDropAddr
	// OpDropDead is a datagram to a departed peer.
	OpDropDead
	// OpDropLink is a datagram lost in flight by the link model.
	OpDropLink
	// OpDropPartition is a datagram dropped at a network partition cut.
	OpDropPartition

	// numOps bounds the Op space.
	numOps = int(OpDropPartition) + 1
)

// NumOps returns the exclusive upper bound of the Op space: every valid op
// satisfies OpSend <= op < NumOps(). Exporters iterate with it.
func NumOps() int { return numOps }

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "send"
	case OpDeliver:
		return "deliver"
	}
	if c, ok := DropCauseOf(o); ok {
		return DropCauses[c].OpName
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp parses an op name as printed by Op.String.
func ParseOp(s string) (Op, error) {
	switch s {
	case "send":
		return OpSend, nil
	case "deliver":
		return OpDeliver, nil
	}
	for _, d := range DropCauses {
		if s == d.OpName {
			return d.Op, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown op %q", s)
}

// Event is one recorded protocol event.
//
// (At, Actor, Seq, Sub) is the event's position in the global total order:
// the scheduler key of the simulation event that produced it plus an
// intra-key ordinal. (Src, OriginSeq) identifies the causal forwarding
// chain the datagram belongs to; Hop and Path locate the datagram within
// that chain (see chain.go). All of these are pure functions of
// (Config, Scenario, Seed) — never of the worker or shard count — so a
// merged trace is bit-identical across execution shapes.
type Event struct {
	// At is the virtual time in milliseconds.
	At int64 `json:"at"`
	// Actor and Seq are the scheduler key of the producing event.
	Actor uint64 `json:"actor"`
	Seq   uint64 `json:"seq"`
	// Sub orders multiple records produced under one scheduler key.
	Sub uint32 `json:"sub"`
	// Op classifies the event.
	Op Op `json:"op"`
	// Kind is the wire message kind byte (see internal/wire.Kind).
	Kind uint8 `json:"kind"`
	// Hop is the datagram's forwarding depth: 0 at the origin, +1 per relay.
	Hop uint8 `json:"hop"`
	// Src and Dst are the message's origin and final-destination peers.
	Src ident.NodeID `json:"src"`
	Dst ident.NodeID `json:"dst"`
	// OriginSeq is the origin peer's per-message counter; (Src, OriginSeq)
	// names the causal chain.
	OriginSeq uint32 `json:"oseq"`
	// Path is the causal path hash: PathRoot at the origin, folded with
	// each relay by PathExtend.
	Path uint64 `json:"path"`
	// From and To are the transport endpoints involved.
	From ident.Endpoint `json:"from"`
	To   ident.Endpoint `json:"to"`
	// Size is the datagram size in bytes.
	Size uint32 `json:"size"`
}

// compareKey orders two events by global order (At, Actor, Seq, Sub),
// returning -1, 0 or +1 like cmp.Compare.
func compareKey(a, b Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Actor, b.Actor); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	return cmp.Compare(a.Sub, b.Sub)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%8dms %-9s kind=%d hop=%d chain=%v:%d %v -> %v (%dB)",
		e.At, e.Op, e.Kind, e.Hop, e.Src, e.OriginSeq, e.From, e.To, e.Size)
}

// Ring is a fixed-capacity event recorder holding the most recent events.
// The zero Ring is invalid; use New. A nil *Ring is a valid no-op recorder,
// so call sites need no conditionals. Ring is not safe for concurrent use:
// in the sharded simulator each shard owns exactly one ring and writes it
// from its own worker only.
type Ring struct {
	events []Event
	next   int
	filled bool
	total  uint64
	// lastAt/lastActor/lastSeq/lastSub assign Sub ordinals: consecutive
	// records under one scheduler key get increasing Sub.
	lastAt    int64
	lastActor uint64
	lastSeq   uint64
	lastSub   uint32
}

// New creates a ring holding the most recent capacity events.
func New(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Ring{events: make([]Event, capacity), lastAt: -1}
}

// Record appends an event, evicting the oldest when full, and assigns the
// event's Sub ordinal from its scheduler key. Recording on a nil ring is a
// no-op; recording never allocates.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	if e.At == r.lastAt && e.Actor == r.lastActor && e.Seq == r.lastSeq {
		r.lastSub++
	} else {
		r.lastAt, r.lastActor, r.lastSeq, r.lastSub = e.At, e.Actor, e.Seq, 0
	}
	e.Sub = r.lastSub
	r.events[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if r.filled {
		return len(r.events)
	}
	return r.next
}

// Total returns the number of events ever recorded, including evicted ones.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Events returns the held events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	if r.filled {
		out = append(out, r.events[r.next:]...)
	}
	out = append(out, r.events[:r.next]...)
	return out
}

// Format renders events one per line.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
