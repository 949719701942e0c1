package core

import (
	"slices"

	"repro/internal/ident"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// This file holds the checkpoint state walk of each of the four engines: one
// field list per engine, walked by snapshot.Codec to capture and to restore.
// Capture runs at a kernel barrier, when no engine call is in flight, so the
// per-call scratch in Shared is dead and never serialized. The engines keep
// no memo or cache beside it, so everything else they hold is walked.
//
// Restoring assumes a freshly constructed engine (same constructor arguments
// as the original: the host re-creates engines structurally from the restored
// roster, then walks state into them). View entries replay through View.Add
// in serialized order so membership observers fire and rebuild their
// accumulators; routing rows replay through rt.LoadRow in storage order so
// deletion swaps behave identically after resume. On corrupt input the
// codec's sticky error is set; the engine must then be discarded.

// descSize is the encoded size of one view.Descriptor.
const descSize = 8 + 6 + 1 + 4

// idState walks one NodeID.
func idState(c *snapshot.Codec, id ident.NodeID) ident.NodeID {
	return ident.NodeID(c.U64(uint64(id)))
}

// sliceState walks a slice in order, each element of at least minElemSize
// encoded bytes through elem. An empty one restores as nil, the value of a
// never-used buffer.
func sliceState[T any](c *snapshot.Codec, s []T, minElemSize int, elem func(*snapshot.Codec, T) T) []T {
	n := c.Count(len(s), minElemSize)
	if c.Restoring() {
		s = nil
		if n > 0 {
			s = make([]T, n)
		}
	}
	for i := range s {
		s[i] = elem(c, s[i])
	}
	return s
}

// viewState walks a view's entries in order. Restoring replays them into the
// fresh view through Add, firing any installed membership observer per entry.
// Add rejecting an entry means the payload violates view invariants
// (duplicate, owner, overflow): the world described is not one a run could
// produce, so the restore fails.
func viewState(c *snapshot.Codec, v *view.View) {
	n := c.Count(v.Len(), descSize)
	for i := 0; i < n && c.Err() == nil; i++ {
		var d view.Descriptor
		if !c.Restoring() {
			d = v.At(i)
		}
		if d = c.Desc(d); c.Restoring() && c.Err() == nil && !v.Add(d) {
			c.Fail("view entry %v rejected on replay", d.ID)
		}
	}
}

// state walks every Stats counter.
func (s *Stats) state(c *snapshot.Codec) {
	s.ShufflesInitiated = c.U64(s.ShufflesInitiated)
	s.ShufflesCompleted = c.U64(s.ShufflesCompleted)
	s.ShufflesAnswered = c.U64(s.ShufflesAnswered)
	s.NoRoute = c.U64(s.NoRoute)
	s.Forwarded = c.U64(s.Forwarded)
	s.HolePunchesStarted = c.U64(s.HolePunchesStarted)
	s.HolePunchesCompleted = c.U64(s.HolePunchesCompleted)
	s.Relayed = c.U64(s.Relayed)
	s.ChainHopsTotal = c.U64(s.ChainHopsTotal)
	s.ChainSamples = c.U64(s.ChainSamples)
	s.CacheFallbacks = c.U64(s.CacheFallbacks)
	s.HopLimitDrops = c.U64(s.HopLimitDrops)
	s.RelayDenied = c.U64(s.RelayDenied)
	s.AdversaryDrops = c.U64(s.AdversaryDrops)
}

// pendingState walks the shuffle in flight: who owes an answer, and the
// cross-round REQUEST buffer. The reqSent backing slice is serialized only
// while pendingSent aliases it (the RESPONSE that will consume it has not
// arrived); afterwards its contents are dead scratch, overwritten before the
// next read, so a fresh engine's nil slice restores it.
func (g *gossip) pendingState(c *snapshot.Codec) {
	g.pendingTarget = idState(c, g.pendingTarget)
	if c.Bool(g.pendingSent != nil) {
		g.reqSent = sliceState(c, g.reqSent, descSize, (*snapshot.Codec).Desc)
		g.pendingSent = g.reqSent
	}
}

// State walks the engine's full protocol state.
func (n *Nylon) State(c *snapshot.Codec) {
	viewState(c, n.view)
	row := func(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
		dest = idState(c, dest)
		rvp = c.Desc(rvp)
		expireAt = c.I64(expireAt)
		if c.Restoring() && c.Err() == nil {
			n.routes.LoadRow(dest, rvp, expireAt)
		}
	}
	if nRows := c.Count(n.routes.Len(), 8+descSize+8); !c.Restoring() {
		n.routes.EachRow(row)
	} else {
		for i := 0; i < nRows && c.Err() == nil; i++ {
			row(0, view.Descriptor{}, 0)
		}
	}
	n.routes.RestoreMinExpire(c.I64(n.routes.MinExpireBound()))
	n.pending = sliceState(c, n.pending, 8, idState)
	n.pendingState(c)
	n.tick = c.U64(n.tick)
	n.stats.state(c)
}

// State walks the engine's full protocol state.
func (g *Generic) State(c *snapshot.Codec) {
	viewState(c, g.view)
	g.pendingState(c)
	g.stats.state(c)
}

// State walks the engine's full protocol state. The reachable-peer cache is
// ordered state (eviction is FIFO, fallback picks by index), so it walks in
// slice order.
func (a *ARRG) State(c *snapshot.Codec) {
	viewState(c, a.view)
	a.cache = sliceState(c, a.cache, descSize, (*snapshot.Codec).Desc)
	a.pendingState(c)
	a.stats.state(c)
}

// State walks the engine's full protocol state. The learned client endpoints
// live in a map, so a capture walks them sorted by peer ID to keep the
// encoding independent of map iteration order.
func (s *StaticRVP) State(c *snapshot.Codec) {
	viewState(c, s.view)
	ids := make([]ident.NodeID, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if n := c.Count(len(ids), 8+6); c.Restoring() {
		ids = make([]ident.NodeID, n)
	}
	for _, id := range ids {
		id = idState(c, id)
		if ep := c.Endpoint(s.clients[id]); c.Err() == nil {
			s.clients[id] = ep
		}
	}
	s.pending = sliceState(c, s.pending, 8, idState)
	s.pendingState(c)
	s.stats.state(c)
}
