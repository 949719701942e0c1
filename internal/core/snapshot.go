package core

import (
	"slices"

	"repro/internal/ident"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// This file implements checkpoint capture and restore for the four engines.
// Capture runs at a kernel barrier, when no engine call is in flight, so the
// per-call scratch in Shared is dead and never serialized. The engines keep
// no memo or cache beside it, so everything else they hold is captured.
//
// Restore methods assume a freshly constructed engine (same constructor
// arguments as the original: the host re-creates engines structurally from
// the restored roster, then replays state into them). View entries replay
// through View.Add in serialized order so membership observers fire and
// rebuild their accumulators; routing rows replay through rt.LoadRow in
// storage order so deletion swaps behave identically after resume.

// encDescs writes a descriptor slice in order.
func encDescs(enc *snapshot.Encoder, ds []view.Descriptor) {
	enc.U32(uint32(len(ds)))
	for _, d := range ds {
		enc.Desc(d)
	}
}

// descSize is the encoded size of one view.Descriptor.
const descSize = 8 + 6 + 1 + 4

// decDescs reads a descriptor slice written by encDescs. A zero count
// returns nil, matching the pre-snapshot value of never-used buffers.
func decDescs(dec *snapshot.Decoder) []view.Descriptor {
	n := dec.Count(descSize)
	if n == 0 {
		return nil
	}
	ds := make([]view.Descriptor, n)
	for i := range ds {
		ds[i] = dec.Desc()
	}
	return ds
}

// encView writes a view's entries in order.
func encView(enc *snapshot.Encoder, v *view.View) {
	enc.U32(uint32(v.Len()))
	for i := 0; i < v.Len(); i++ {
		enc.Desc(v.At(i))
	}
}

// decView replays serialized entries into a fresh view through Add, firing
// any installed membership observer per entry. Add rejecting an entry means
// the payload violates view invariants (duplicate, owner, overflow): the
// world described is not one a run could produce, so the decode fails.
func decView(dec *snapshot.Decoder, v *view.View) {
	n := dec.Count(descSize)
	for i := 0; i < n; i++ {
		d := dec.Desc()
		if dec.Err() != nil {
			return
		}
		if !v.Add(d) {
			dec.Fail("view entry %v rejected on replay", d.ID)
			return
		}
	}
}

// encStats writes every Stats counter.
func encStats(enc *snapshot.Encoder, s *Stats) {
	enc.U64(s.ShufflesInitiated)
	enc.U64(s.ShufflesCompleted)
	enc.U64(s.ShufflesAnswered)
	enc.U64(s.NoRoute)
	enc.U64(s.Forwarded)
	enc.U64(s.HolePunchesStarted)
	enc.U64(s.HolePunchesCompleted)
	enc.U64(s.Relayed)
	enc.U64(s.ChainHopsTotal)
	enc.U64(s.ChainSamples)
	enc.U64(s.CacheFallbacks)
	enc.U64(s.HopLimitDrops)
	enc.U64(s.RelayDenied)
	enc.U64(s.AdversaryDrops)
}

// decStats reads counters written by encStats.
func decStats(dec *snapshot.Decoder, s *Stats) {
	s.ShufflesInitiated = dec.U64()
	s.ShufflesCompleted = dec.U64()
	s.ShufflesAnswered = dec.U64()
	s.NoRoute = dec.U64()
	s.Forwarded = dec.U64()
	s.HolePunchesStarted = dec.U64()
	s.HolePunchesCompleted = dec.U64()
	s.Relayed = dec.U64()
	s.ChainHopsTotal = dec.U64()
	s.ChainSamples = dec.U64()
	s.CacheFallbacks = dec.U64()
	s.HopLimitDrops = dec.U64()
	s.RelayDenied = dec.U64()
	s.AdversaryDrops = dec.U64()
}

// encPendingSent writes the cross-round REQUEST buffer: the reqSent backing
// slice is serialized only while pendingSent aliases it (the RESPONSE that
// will consume it has not arrived); afterwards its contents are dead scratch,
// overwritten before the next read, so an empty slice restores it.
func encPendingSent(enc *snapshot.Encoder, reqSent, pendingSent []view.Descriptor) {
	valid := pendingSent != nil
	enc.Bool(valid)
	if valid {
		encDescs(enc, reqSent)
	}
}

// decPendingSent reads the buffer written by encPendingSent, returning the
// restored reqSent slice and the pendingSent alias (nil when not pending).
func decPendingSent(dec *snapshot.Decoder) (reqSent, pendingSent []view.Descriptor) {
	if !dec.Bool() {
		return nil, nil
	}
	reqSent = decDescs(dec)
	return reqSent, reqSent
}

// encIDs writes a NodeID slice in order.
func encIDs(enc *snapshot.Encoder, ids []ident.NodeID) {
	enc.U32(uint32(len(ids)))
	for _, id := range ids {
		enc.U64(uint64(id))
	}
}

// decIDs reads a slice written by encIDs (nil when empty).
func decIDs(dec *snapshot.Decoder) []ident.NodeID {
	n := dec.Count(8)
	if n == 0 {
		return nil
	}
	ids := make([]ident.NodeID, n)
	for i := range ids {
		ids[i] = ident.NodeID(dec.U64())
	}
	return ids
}

// SnapshotTo serializes the engine's full protocol state.
func (n *Nylon) SnapshotTo(enc *snapshot.Encoder) {
	encView(enc, n.view)
	enc.U32(uint32(n.routes.Len()))
	n.routes.EachRow(func(dest ident.NodeID, rvp view.Descriptor, expireAt int64) {
		enc.U64(uint64(dest))
		enc.Desc(rvp)
		enc.I64(expireAt)
	})
	enc.I64(n.routes.MinExpireBound())
	encIDs(enc, n.pending)
	enc.U64(uint64(n.pendingTarget))
	encPendingSent(enc, n.reqSent, n.pendingSent)
	enc.U64(n.tick)
	encStats(enc, &n.stats)
}

// RestoreFrom replays state captured by SnapshotTo into a freshly
// constructed engine. On corrupt input the decoder's sticky error is set;
// the engine must then be discarded.
func (n *Nylon) RestoreFrom(dec *snapshot.Decoder) {
	decView(dec, n.view)
	nRows := dec.Count(8 + descSize + 8)
	for i := 0; i < nRows; i++ {
		dest := ident.NodeID(dec.U64())
		rvp := dec.Desc()
		expireAt := dec.I64()
		if dec.Err() != nil {
			return
		}
		n.routes.LoadRow(dest, rvp, expireAt)
	}
	n.routes.RestoreMinExpire(dec.I64())
	n.pending = decIDs(dec)
	n.pendingTarget = ident.NodeID(dec.U64())
	n.reqSent, n.pendingSent = decPendingSent(dec)
	n.tick = dec.U64()
	decStats(dec, &n.stats)
}

// SnapshotTo serializes the engine's full protocol state.
func (g *Generic) SnapshotTo(enc *snapshot.Encoder) {
	encView(enc, g.view)
	enc.U64(uint64(g.pendingTarget))
	encPendingSent(enc, g.reqSent, g.pendingSent)
	encStats(enc, &g.stats)
}

// RestoreFrom replays state captured by SnapshotTo into a freshly
// constructed engine.
func (g *Generic) RestoreFrom(dec *snapshot.Decoder) {
	decView(dec, g.view)
	g.pendingTarget = ident.NodeID(dec.U64())
	g.reqSent, g.pendingSent = decPendingSent(dec)
	decStats(dec, &g.stats)
}

// SnapshotTo serializes the engine's full protocol state. The reachable-peer
// cache is ordered state (eviction is FIFO, fallback picks by index), so it
// serializes in slice order.
func (a *ARRG) SnapshotTo(enc *snapshot.Encoder) {
	encView(enc, a.view)
	encDescs(enc, a.cache)
	enc.U64(uint64(a.pending))
	encPendingSent(enc, a.reqSent, a.pendingSent)
	encStats(enc, &a.stats)
}

// RestoreFrom replays state captured by SnapshotTo into a freshly
// constructed engine.
func (a *ARRG) RestoreFrom(dec *snapshot.Decoder) {
	decView(dec, a.view)
	a.cache = decDescs(dec)
	a.pending = ident.NodeID(dec.U64())
	a.reqSent, a.pendingSent = decPendingSent(dec)
	decStats(dec, &a.stats)
}

// SnapshotTo serializes the engine's full protocol state. The learned client
// endpoints live in a map, so they serialize sorted by peer ID to keep the
// encoding independent of map iteration order.
func (s *StaticRVP) SnapshotTo(enc *snapshot.Encoder) {
	encView(enc, s.view)
	ids := make([]ident.NodeID, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	enc.U32(uint32(len(ids)))
	for _, id := range ids {
		enc.U64(uint64(id))
		enc.Endpoint(s.clients[id])
	}
	encIDs(enc, s.pending)
	enc.U64(uint64(s.pendingTarget))
	encPendingSent(enc, s.reqSent, s.pendingSent)
	encStats(enc, &s.stats)
}

// RestoreFrom replays state captured by SnapshotTo into a freshly
// constructed engine.
func (s *StaticRVP) RestoreFrom(dec *snapshot.Decoder) {
	decView(dec, s.view)
	nClients := dec.Count(8 + 6)
	for i := 0; i < nClients; i++ {
		id := ident.NodeID(dec.U64())
		ep := dec.Endpoint()
		if dec.Err() != nil {
			return
		}
		s.clients[id] = ep
	}
	s.pending = decIDs(dec)
	s.pendingTarget = ident.NodeID(dec.U64())
	s.reqSent, s.pendingSent = decPendingSent(dec)
	decStats(dec, &s.stats)
}
