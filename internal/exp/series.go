package exp

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/stats"
	"repro/internal/view"
)

// SamplePoint is one mid-run measurement of the overlay's health, taken with
// the same usable-edge semantics as the end-of-run Result. Samples fire at
// round boundaries before that round's scenario events, so a point reflects
// the overlay as the round begins.
type SamplePoint struct {
	// Round is the shuffling round at which the snapshot was taken.
	Round int
	// BiggestCluster is the usable-edge largest-component fraction.
	BiggestCluster float64
	// StaleFraction is the stale share of view entries.
	StaleFraction float64
	// AlivePeers is the population at the snapshot.
	AlivePeers int
	// Joins and Leaves are the cumulative scenario-driven arrivals and
	// departures up to the snapshot (zero without a scenario).
	Joins, Leaves uint64
	// Eclipse is the fraction of alive honest peers whose non-empty view
	// consists entirely of colluders; ColluderShare is the share of honest
	// view entries referencing colluders. Both zero without adversaries
	// (see AdversaryStats for the definitions).
	Eclipse       float64
	ColluderShare float64
}

// RecoveryThreshold is the biggest-cluster fraction at which the overlay
// counts as recovered from a disruption.
const RecoveryThreshold = 0.95

// Recovery condenses a health series into a recovery curve: how deep the
// overlay sank and how long it took to knit itself back together.
type Recovery struct {
	// WorstCluster is the lowest sampled biggest-cluster fraction, and
	// WorstRound the round it was observed.
	WorstCluster float64
	WorstRound   int
	// RecoveredRound is the first sampled round after the worst point at
	// which the cluster regained RecoveryThreshold; -1 if it never did.
	RecoveredRound int
	// ClusterSummary summarizes the sampled biggest-cluster fractions.
	ClusterSummary stats.Summary
}

// recoveryFrom computes the recovery summary of a series. An empty series
// yields the zero Recovery.
func recoveryFrom(series []SamplePoint) Recovery {
	if len(series) == 0 {
		return Recovery{}
	}
	r := Recovery{WorstCluster: series[0].BiggestCluster, WorstRound: series[0].Round, RecoveredRound: -1}
	clusters := make([]float64, len(series))
	for i, pt := range series {
		clusters[i] = pt.BiggestCluster
		if pt.BiggestCluster < r.WorstCluster {
			r.WorstCluster = pt.BiggestCluster
			r.WorstRound = pt.Round
		}
	}
	for _, pt := range series {
		if pt.Round > r.WorstRound && pt.BiggestCluster >= RecoveryThreshold {
			r.RecoveredRound = pt.Round
			break
		}
	}
	if r.WorstCluster >= RecoveryThreshold {
		// Never disrupted below the threshold: recovered from the start.
		r.RecoveredRound = r.WorstRound
	}
	r.ClusterSummary = stats.Summarize(clusters)
	return r
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
// the usable edge set plus the stale fraction, copying entries out through
// EntriesInto. The final measurement and the periodic series use the chunked,
// zero-copy walkOverlay, for which this remains the independently coded
// reference (Config.VerifySamples). Exact staleness depends on the viewing
// peer (NAT admission, RVP chain walks — see DESIGN.md §9), so neither walk
// can move into the incremental accumulators; what could, did.
func (st *runState) overlaySnapshot(now int64) (aliveIDs []ident.NodeID, edges []graph.Edge, staleFraction float64) {
	var stale, total float64
	aliveIDs = make([]ident.NodeID, 0, st.net.PeerCount())
	edges = make([]graph.Edge, 0, st.net.PeerCount()*st.cfg.ViewSize)
	var entries []view.Descriptor
	for _, p := range st.net.Peers() {
		if !p.Alive {
			continue
		}
		aliveIDs = append(aliveIDs, p.ID)
		entries = p.Engine.View().EntriesInto(entries)
		for _, d := range entries {
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

// scheduleSeries arms periodic snapshots every SampleEveryRounds rounds (as
// global barrier events: a snapshot walks every shard's peers) into
// st.series. Only rounds strictly after the given time are armed: resumed
// runs restore the earlier points from the snapshot and pass its time here.
func (st *runState) scheduleSeries(after int64) {
	if st.series == nil {
		st.series = &[]SamplePoint{}
	}
	series := st.series
	if st.cfg.SampleEveryRounds <= 0 {
		return
	}
	for r := st.cfg.SampleEveryRounds; r <= st.cfg.Rounds; r += st.cfg.SampleEveryRounds {
		r := r
		if int64(r)*st.cfg.PeriodMs <= after {
			continue
		}
		st.kern.Global().At(int64(r)*st.cfg.PeriodMs, func() {
			now := st.now()
			w := st.walkOverlay(now, nil)
			if st.cfg.VerifySamples {
				st.verifySample(now, w)
			}
			pt := SamplePoint{
				Round:          r,
				BiggestCluster: w.biggestCluster(st.net.PeerCount()),
				StaleFraction:  w.staleFraction(),
				AlivePeers:     len(w.ids),
			}
			if st.scn != nil {
				pt.Joins, pt.Leaves = st.scn.stats.Joins, st.scn.stats.Leaves
			}
			if st.adv != nil {
				s := st.sampleAdversary(false)
				pt.Eclipse = s.eclipseFraction()
				pt.ColluderShare = s.colluderShare()
			}
			*series = append(*series, pt)
			if st.cfg.Obs != nil {
				st.cfg.Obs.PublishSample(r, pt.AlivePeers, pt.BiggestCluster, pt.StaleFraction)
			}
			st.observeFlight(pt, *series)
		})
	}
}
