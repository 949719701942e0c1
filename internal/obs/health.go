package obs

import (
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/view"
)

// Health maintains the overlay-health accumulators incrementally: view
// occupancy per shard, a per-peer indegree tally, alive/dead population
// counts, and dead-reference totals. View-mutation hooks (view.Observer)
// feed it from the shard goroutines, so the periodic series and the live
// endpoint need no full-network sweep of the views to know how full and
// how stale-leaning they are.
//
// Concurrency: hooks fire mid-window on shard goroutines and only touch the
// firing shard's padded occupancy slot plus target-indexed atomics, so
// shards never contend. Population changes (AddPeer, Kill) happen at
// barriers, where shards are quiesced — growing the ID-indexed arrays swaps
// in a fresh copy, so a concurrent HTTP reader sees either the old or the
// new snapshot, never a torn one. All counters are write-only from the
// simulation's perspective: nothing here ever feeds back into it.
//
// Semantics: a departed peer's view freezes at death (dead peers neither
// tick nor receive), so its entries stay in the occupancy and indegree
// tallies; DeadEntries tracks how many of the total are frozen that way,
// and DeadRefs how many entries (in any view) point at departed peers —
// the incremental upper layer of the paper's stale-reference count. Exact
// staleness additionally depends on NAT state and on the viewing peer (see
// DESIGN.md §9), which is why the sampled series keeps its graph walk.
type Health struct {
	shards []healthShard
	state  atomic.Pointer[healthState]

	alive       atomic.Int64
	total       atomic.Int64
	deadRefs    atomic.Int64
	deadEntries atomic.Int64

	obs []ShardObserver
}

type healthShard struct {
	entries atomic.Int64
	_       [cacheLine - 8]byte
}

// healthState holds the NodeID-indexed arrays, replaced wholesale when the
// population outgrows them (barrier context only).
type healthState struct {
	refs []atomic.Int32 // refs[id]: how many views reference peer id
	dead []atomic.Bool  // dead[id]: the peer departed
}

// ShardObserver is one shard's view.Observer handle into a Health.
type ShardObserver struct {
	h     *Health
	shard int
}

var _ view.Observer = (*ShardObserver)(nil)

// NewHealth creates the accumulators for a world of the given shard count,
// sized for capacity peers (growing as the population does).
func NewHealth(shards, capacity int) *Health {
	if shards < 1 {
		panic("obs: NewHealth needs at least one shard")
	}
	if capacity < 1 {
		capacity = 1
	}
	h := &Health{shards: make([]healthShard, shards)}
	h.state.Store(&healthState{
		refs: make([]atomic.Int32, capacity+1),
		dead: make([]atomic.Bool, capacity+1),
	})
	h.obs = make([]ShardObserver, shards)
	for i := range h.obs {
		h.obs[i] = ShardObserver{h: h, shard: i}
	}
	return h
}

// Observer returns the hook handle views owned by the given shard attach.
func (h *Health) Observer(shard int) *ShardObserver { return &h.obs[shard] }

// AddPeer registers a peer (barrier context), growing the ID-indexed arrays
// as needed.
func (h *Health) AddPeer(id ident.NodeID) {
	st := h.state.Load()
	if int(id) >= len(st.refs) {
		n := 2 * len(st.refs)
		if n <= int(id) {
			n = int(id) + 1
		}
		ns := &healthState{refs: make([]atomic.Int32, n), dead: make([]atomic.Bool, n)}
		for i := range st.refs {
			ns.refs[i].Store(st.refs[i].Load())
			ns.dead[i].Store(st.dead[i].Load())
		}
		h.state.Store(ns)
	}
	h.alive.Add(1)
	h.total.Add(1)
}

// Kill marks a peer departed (barrier context): its indegree tally moves to
// the dead-reference total and its frozen view entries to DeadEntries.
// Killing an unknown or already-dead peer is a no-op.
func (h *Health) Kill(id ident.NodeID, viewLen int) {
	st := h.state.Load()
	i := int(id)
	if i <= 0 || i >= len(st.dead) || st.dead[i].Load() {
		return
	}
	st.dead[i].Store(true)
	h.alive.Add(-1)
	h.deadRefs.Add(int64(st.refs[i].Load()))
	h.deadEntries.Add(int64(viewLen))
}

// ViewEntryAdded implements view.Observer.
func (o *ShardObserver) ViewEntryAdded(owner ident.NodeID, d view.Descriptor) {
	h := o.h
	h.shards[o.shard].entries.Add(1)
	st := h.state.Load()
	if i := int(d.ID); i > 0 && i < len(st.refs) {
		st.refs[i].Add(1)
		if st.dead[i].Load() {
			h.deadRefs.Add(1)
		}
	}
}

// ViewEntryRemoved implements view.Observer.
func (o *ShardObserver) ViewEntryRemoved(owner ident.NodeID, d view.Descriptor) {
	h := o.h
	h.shards[o.shard].entries.Add(-1)
	st := h.state.Load()
	if i := int(d.ID); i > 0 && i < len(st.refs) {
		st.refs[i].Add(-1)
		if st.dead[i].Load() {
			h.deadRefs.Add(-1)
		}
	}
}

// Alive returns the alive population.
func (h *Health) Alive() int64 { return h.alive.Load() }

// Total returns the total population ever attached.
func (h *Health) Total() int64 { return h.total.Load() }

// Entries returns view occupancy across every view, alive and dead owners
// alike (dead views are frozen, not cleared).
func (h *Health) Entries() int64 {
	var t int64
	for i := range h.shards {
		t += h.shards[i].entries.Load()
	}
	return t
}

// DeadEntries returns the entries frozen inside departed peers' views.
func (h *Health) DeadEntries() int64 { return h.deadEntries.Load() }

// AliveEntries returns the occupancy of alive peers' views.
func (h *Health) AliveEntries() int64 { return h.Entries() - h.DeadEntries() }

// DeadRefs returns how many view entries (in any view) reference departed
// peers.
func (h *Health) DeadRefs() int64 { return h.deadRefs.Load() }

// Indegree returns the current reference tally for one peer.
func (h *Health) Indegree(id ident.NodeID) int {
	st := h.state.Load()
	if i := int(id); i > 0 && i < len(st.refs) {
		return int(st.refs[i].Load())
	}
	return 0
}

// IndegreeStats scans the tallies (O(population), scrape-time only) and
// returns the maximum indegree and how many alive peers no view references
// — isolated peers are the canary of partition and eclipse trouble.
func (h *Health) IndegreeStats() (maxDeg int, isolated int) {
	st := h.state.Load()
	// Peers occupy the dense ID range 1..Total; the arrays may be larger
	// after growth doubling.
	top := int(h.total.Load())
	if top >= len(st.refs) {
		top = len(st.refs) - 1
	}
	for i := 1; i <= top; i++ {
		d := int(st.refs[i].Load())
		if d > maxDeg {
			maxDeg = d
		}
		if d == 0 && !st.dead[i].Load() {
			isolated++
		}
	}
	return maxDeg, isolated
}
