package exp

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
)

// runVerified runs cfg as Run does and, at the first barrier of every sample
// round, cross-checks a fresh measurement walk against the serial reference
// sweep and the health accumulators against a recount (verifySample). It
// fails the test if no sample round was checked, and returns the Result with
// its config echo zeroed, as runCorpus does.
//
// The checks hang off the kernel's barrier hook, not off global events: a
// global event counts in EventsProcessed, so arming one per sample would move
// the very Result the checks guard. At the hook every event at or before the
// barrier has run and no shard executes, so the world holds still for both
// walks.
func runVerified(t *testing.T, cfg Config) Result {
	t.Helper()
	st := wireWorld(t, cfg)
	every := int64(st.cfg.SampleEveryRounds) * st.cfg.PeriodMs
	next, checked := every, 0
	st.kern.SetCheckpointFn(func(now int64) bool {
		if every > 0 && now >= next {
			next = (now/every + 1) * every
			st.verifySample(now, st.walkOverlay(now, nil))
			checked++
		}
		return st.ck != nil && st.checkpointBarrier(now)
	})
	res, err := st.runToHorizon()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no sample round was cross-checked")
	}
	return normalize(res)
}

// verifySample cross-checks one sample of the chunked walk against the legacy
// full-copy sweep (overlaySnapshot) and the incremental health accumulators.
// Divergence means a bug in the observability layer, so it panics rather
// than letting the series silently skew.
func (st *runState) verifySample(now int64, w *overlayWalk) {
	refIDs, refEdges, refStale := st.overlaySnapshot(now)
	if stale := w.staleFraction(); !slices.Equal(w.ids, refIDs) || !slices.Equal(w.edges, refEdges) || stale != refStale {
		panic(fmt.Sprintf("exp: sample diverges from reference sweep (%d vs %d ids, %d vs %d edges, stale %v vs %v)",
			len(w.ids), len(refIDs), len(w.edges), len(refEdges), stale, refStale))
	}
	st.verifyAccumulators()
}

// verifyAccumulators recounts the health accumulators from scratch — every
// view of every peer, dead ones included — and panics on any mismatch with
// the incrementally maintained values.
func (st *runState) verifyAccumulators() {
	h := st.health
	if h == nil {
		return
	}
	var alive, entries, deadEntries, deadRefs int64
	refs := make(map[ident.NodeID]int64, st.net.PeerCount())
	for _, p := range st.net.Peers() {
		v := p.Engine.View()
		n := int64(v.Len())
		entries += n
		if p.Alive {
			alive++
		} else {
			deadEntries += n
		}
		for j, l := 0, v.Len(); j < l; j++ {
			d := v.At(j)
			refs[d.ID]++
			if q := st.net.Peer(d.ID); q == nil || !q.Alive {
				deadRefs++
			}
		}
	}
	if h.Alive() != alive || h.Entries() != entries || h.DeadEntries() != deadEntries || h.DeadRefs() != deadRefs {
		panic(fmt.Sprintf("exp: health accumulators diverge from recount: alive %d vs %d, entries %d vs %d, dead entries %d vs %d, dead refs %d vs %d",
			h.Alive(), alive, h.Entries(), entries, h.DeadEntries(), deadEntries, h.DeadRefs(), deadRefs))
	}
	for id, want := range refs {
		if got := int64(h.Indegree(id)); got != want {
			panic(fmt.Sprintf("exp: indegree accumulator for peer %d diverges: %d vs recount %d", id, got, want))
		}
	}
}

// overlaySnapshot walks every alive peer's view once, serially, and returns
// the usable edge set plus the stale fraction. The final measurement and the
// periodic series use the chunked walkOverlay, for which this remains the
// independently coded reference (runVerified). Exact staleness depends on the viewing
// peer (NAT admission, RVP chain walks — see DESIGN.md §9), so neither walk
// can move into the incremental accumulators; what could, did.
func (st *runState) overlaySnapshot(now int64) (aliveIDs []ident.NodeID, edges []graph.Edge, staleFraction float64) {
	var stale, total float64
	aliveIDs = make([]ident.NodeID, 0, st.net.PeerCount())
	edges = make([]graph.Edge, 0, st.net.PeerCount()*st.cfg.ViewSize)
	for _, p := range st.net.Peers() {
		if !p.Alive {
			continue
		}
		aliveIDs = append(aliveIDs, p.ID)
		for v, i := p.Engine.View(), 0; i < v.Len(); i++ {
			d := v.At(i)
			total++
			if st.usableEdge(now, p, d) {
				edges = append(edges, graph.Edge{From: p.ID, To: d.ID})
			} else {
				stale++
			}
		}
	}
	if total > 0 {
		staleFraction = stale / total
	}
	return aliveIDs, edges, staleFraction
}
