package exp

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
}

// recoveryFrom computes the recovery summary of a series. An empty series
// yields the zero Recovery.
func recoveryFrom(series []SamplePoint) Recovery {
	if len(series) == 0 {
		return Recovery{}
	}
	r := Recovery{WorstCluster: series[0].BiggestCluster, WorstRound: series[0].Round, RecoveredRound: -1}
	for _, pt := range series {
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
	return r
}

// sample states the health numbers of walk w, taken at round r: the one
// place the series and the final measure read them from.
func (st *runState) sample(r int, w *overlayWalk) SamplePoint {
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
		pt.Eclipse = ratio(w.sums.eclipsed, w.sums.honest)
		pt.ColluderShare = ratio(w.sums.colluderEntries, w.sums.honestEntries)
	}
	return pt
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
			pt := st.sample(r, st.walkOverlay(st.now(), nil))
			*series = append(*series, pt)
			if st.cfg.Obs != nil {
				st.cfg.Obs.PublishSample(r, pt.AlivePeers, pt.BiggestCluster, pt.StaleFraction)
			}
			st.observeFlight(pt, *series)
		})
	}
}
