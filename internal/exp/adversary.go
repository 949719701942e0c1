package exp

import (
	"fmt"
	"sort"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/xrand"
)

// Adversary RNG stream salts, companions of the scenario salts in
// scenario_driver.go. Assignment draws from per-(spec, peer index) streams so
// cohort membership is a pure function of (Seed, spec order, peer index) —
// identical at build time and at mid-run joins, invariant to worker and
// shard counts.
const (
	saltAdversaryAssign uint64 = 0xc4a2_0000_0000_0004 // cohort membership
	saltAdversaryRNG    uint64 = 0xc4a2_0000_0000_0005 // wrapper-private randomness
)

// AdversaryStats holds the attack-centric metrics of a run. All fields stay
// zero for runs without adversaries. "Honest" peers are those assigned no
// strategy; "colluders" are the poison-view cohort whose descriptors every
// poisoner advertises. View-content metrics (eclipse, colluder shares) are
// computed over the raw views of alive honest peers — eclipse by departed
// colluders still counts, because the victim's sampling is still captured.
type AdversaryStats struct {
	// AdversaryCount is the number of peers ever assigned a strategy;
	// ColluderCount the subset running poison-view.
	AdversaryCount int
	ColluderCount  int
	// EclipseFraction is the fraction of alive honest peers whose
	// non-empty view consists entirely of colluders — the attack's
	// success probability.
	EclipseFraction float64
	// ColluderViewFraction is the fraction of alive honest peers whose
	// view contains at least one colluder (attack reach).
	ColluderViewFraction float64
	// ColluderIndegreeShare is the share of honest view entries that
	// reference colluders; under unbiased sampling it approaches the
	// colluder population share.
	ColluderIndegreeShare float64
	// TopKIndegreeShare is the share of honest view references held by the
	// k most-referenced peers, k = ColluderCount (or AdversaryCount when
	// no colluders exist) — hub concentration whoever the hubs are.
	TopKIndegreeShare float64
	// HonestCluster is the biggest-cluster fraction of the honest-only
	// subgraph of usable edges: partition resistance once every
	// adversarial peer and edge is discounted.
	HonestCluster float64
	// RelayDenied, AdversaryDrops and HopLimitDrops aggregate the
	// corresponding core.Stats counters across all engines.
	RelayDenied    uint64
	AdversaryDrops uint64
	HopLimitDrops  uint64
}

// advSpec is one parsed adversary cohort.
type advSpec struct {
	strategy  adversary.Strategy
	fraction  float64
	ids       map[ident.NodeID]bool
	activeAt  int64
	dropKinds adversary.KindMask
	victims   map[ident.NodeID]bool
}

// adversaryState carries a run's Byzantine wiring: the parsed cohort specs,
// the shared colluder roster, and the assigned strategies (for metrics).
// Mutation happens only at barrier context — peer creation and scenario
// joins — so mid-window reads from shard goroutines are race-free.
type adversaryState struct {
	seed       int64
	specs      []advSpec
	specRoots  []int64 // per-spec assignment stream roots
	colluders  *adversary.ColluderSet
	strategies map[ident.NodeID]adversary.Strategy
	count      int
}

// newAdversaryState parses the scenario's adversary specs; nil when there
// are none (the zero-overhead fast path). cfg must be validated.
func newAdversaryState(cfg Config) *adversaryState {
	list := cfg.Scenario.AdversaryList()
	if len(list) == 0 {
		return nil
	}
	a := &adversaryState{
		seed:       cfg.Seed,
		colluders:  adversary.NewColluderSet(),
		strategies: make(map[ident.NodeID]adversary.Strategy),
	}
	root := xrand.Mix(cfg.Seed, saltAdversaryAssign)
	for j, spec := range list {
		strat, err := adversary.ParseStrategy(spec.Strategy)
		if err != nil {
			panic(fmt.Sprintf("exp: unvalidated adversary spec: %v", err)) // Config.validate runs first
		}
		mask, err := adversary.ParseKinds(spec.DropKinds)
		if err != nil {
			panic(fmt.Sprintf("exp: unvalidated adversary spec: %v", err))
		}
		sp := advSpec{
			strategy:  strat,
			fraction:  spec.Fraction,
			activeAt:  int64(spec.FromRound) * cfg.PeriodMs,
			dropKinds: mask,
		}
		if len(spec.IDs) > 0 {
			sp.ids = make(map[ident.NodeID]bool, len(spec.IDs))
			for _, id := range spec.IDs {
				sp.ids[ident.NodeID(id)] = true
			}
		}
		if len(spec.Victims) > 0 {
			sp.victims = make(map[ident.NodeID]bool, len(spec.Victims))
			for _, id := range spec.Victims {
				sp.victims[ident.NodeID(id)] = true
			}
		}
		a.specs = append(a.specs, sp)
		a.specRoots = append(a.specRoots, xrand.Mix(root, uint64(j)))
	}
	return a
}

// specFor decides which cohort (if any) the peer at the given index joins:
// specs are matched in order, first match wins. Fractional membership draws
// one value from a stream derived solely from (seed, spec, peer index), so
// the decision is identical wherever and whenever the peer is created.
func (a *adversaryState) specFor(idx int, id ident.NodeID) *advSpec {
	for j := range a.specs {
		sp := &a.specs[j]
		if sp.ids != nil {
			if sp.ids[id] {
				return sp
			}
			continue
		}
		if xrand.New(xrand.Mix(a.specRoots[j], uint64(idx))).Float64() < sp.fraction {
			return sp
		}
	}
	return nil
}

// wrap decorates a freshly built honest engine when its peer belongs to a
// cohort, registering colluders and the assigned strategy. Called from the
// engine factory, i.e. at barrier context only.
func (a *adversaryState) wrap(idx int, holeTimeoutMs int64, eng core.Engine) core.Engine {
	self := eng.Self()
	sp := a.specFor(idx, self.ID)
	if sp == nil {
		return eng
	}
	a.strategies[self.ID] = sp.strategy
	a.count++
	if sp.strategy == adversary.PoisonView {
		var ttl uint32
		if self.Class.Natted() {
			ttl = uint32(holeTimeoutMs)
		}
		a.colluders.Add(self, ttl)
	}
	return adversary.Wrap(eng, adversary.Config{
		Strategy:  sp.strategy,
		ActiveAt:  sp.activeAt,
		Colluders: a.colluders,
		DropKinds: sp.dropKinds,
		Victims:   sp.victims,
	}, xrand.Mix(xrand.Mix(a.seed, uint64(idx)), saltAdversaryRNG))
}

// honest reports whether the peer was assigned no strategy.
func (a *adversaryState) honest(id ident.NodeID) bool {
	return a.strategies[id] == adversary.None
}

// advViewSample is one walk over the raw views of alive honest peers.
type advViewSample struct {
	honest          int
	eclipsed        int
	withColluder    int
	entriesTotal    int
	entriesColluder int
	// refs counts, per target, how often honest views reference it (only
	// filled when withRefs is requested — the final measurement needs it,
	// the periodic series does not).
	refs map[ident.NodeID]int
}

func (s advViewSample) eclipseFraction() float64 {
	if s.honest == 0 {
		return 0
	}
	return float64(s.eclipsed) / float64(s.honest)
}

func (s advViewSample) colluderViewFraction() float64 {
	if s.honest == 0 {
		return 0
	}
	return float64(s.withColluder) / float64(s.honest)
}

func (s advViewSample) colluderShare() float64 {
	if s.entriesTotal == 0 {
		return 0
	}
	return float64(s.entriesColluder) / float64(s.entriesTotal)
}

// topKShare returns the share of references held by the k most-referenced
// targets (0 when no references were collected).
func (s advViewSample) topKShare(k int) float64 {
	if k <= 0 || len(s.refs) == 0 || s.entriesTotal == 0 {
		return 0
	}
	counts := make([]int, 0, len(s.refs))
	for _, c := range s.refs {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if k > len(counts) {
		k = len(counts)
	}
	top := 0
	for _, c := range counts[:k] {
		top += c
	}
	return float64(top) / float64(s.entriesTotal)
}

// sampleAdversary walks the raw views of alive honest peers, counting
// colluder penetration. Runs at barrier context (series samples, final
// measurement).
func (st *runState) sampleAdversary(withRefs bool) advViewSample {
	s := advViewSample{}
	if withRefs {
		s.refs = make(map[ident.NodeID]int)
	}
	for _, p := range st.net.Peers() {
		if !p.Alive || !st.adv.honest(p.ID) {
			continue
		}
		s.honest++
		v := p.Engine.View()
		n := v.Len()
		colluder := 0
		for j := 0; j < n; j++ {
			d := v.At(j)
			if st.adv.colluders.Contains(d.ID) {
				colluder++
			}
			if s.refs != nil {
				s.refs[d.ID]++
			}
		}
		s.entriesTotal += n
		s.entriesColluder += colluder
		if colluder > 0 {
			s.withColluder++
			if colluder == n {
				s.eclipsed++
			}
		}
	}
	return s
}

// measureAdversary fills the Result's adversary block: view penetration,
// indegree concentration, and the honest-only partition resistance over the
// already-walked usable edges.
func (st *runState) measureAdversary(res *Result, w *overlayWalk) {
	a := st.adv
	s := st.sampleAdversary(true)
	res.Adversary.AdversaryCount = a.count
	res.Adversary.ColluderCount = a.colluders.Len()
	res.Adversary.EclipseFraction = s.eclipseFraction()
	res.Adversary.ColluderViewFraction = s.colluderViewFraction()
	res.Adversary.ColluderIndegreeShare = s.colluderShare()
	k := a.colluders.Len()
	if k == 0 {
		k = a.count
	}
	res.Adversary.TopKIndegreeShare = s.topKShare(k)

	honestIDs := make([]ident.NodeID, 0, len(w.ids))
	for _, id := range w.ids {
		if a.honest(id) {
			honestIDs = append(honestIDs, id)
		}
	}
	honestEdges := make([]graph.Edge, 0, len(w.edges))
	for _, e := range w.edges {
		if a.honest(e.From) && a.honest(e.To) {
			honestEdges = append(honestEdges, e)
		}
	}
	res.Adversary.HonestCluster = w.dense.BiggestClusterFraction(st.net.PeerCount(), honestIDs, honestEdges)
}
