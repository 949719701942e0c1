package exp

import (
	"fmt"
	"slices"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/simnet"
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

// adversaryState carries a run's Byzantine wiring: the parsed cohort specs and
// the shared colluder roster. Which peers are hostile, the peers' engines say
// (see hostile).
// Mutation happens only at barrier context — peer creation and scenario
// joins — so mid-window reads from shard goroutines are race-free.
type adversaryState struct {
	seed      int64
	specs     []advSpec
	specRoots []int64 // per-spec assignment stream roots
	colluders *adversary.ColluderSet
	// count is the number of peers ever drafted, departed ones included.
	count int
}

// newAdversaryState parses the scenario's adversary specs; nil when there
// are none (the zero-overhead fast path). cfg must be validated.
func newAdversaryState(cfg Config) *adversaryState {
	list := cfg.Scenario.AdversaryList()
	if len(list) == 0 {
		return nil
	}
	a := &adversaryState{
		seed:      cfg.Seed,
		colluders: adversary.NewColluderSet(),
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
// cohort, counting it and registering colluders. Called from the engine
// factory, i.e. at barrier context only.
func (a *adversaryState) wrap(idx int, holeTimeoutMs int64, eng core.Engine) core.Engine {
	self := eng.Self()
	sp := a.specFor(idx, self.ID)
	if sp == nil {
		return eng
	}
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

// hostile reports whether p runs an adversarial wrapper. Wrap hands a peer
// assigned no strategy its honest engine itself, so the wrapper is the cohort
// roster.
func hostile(p *simnet.Peer) bool {
	_, ok := p.Engine.(*adversary.Engine)
	return ok
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measureAdversary fills the Result's adversary block: view penetration,
// indegree concentration, and the honest-only partition resistance over the
// already-walked usable edges.
func (st *runState) measureAdversary(res *Result, w *overlayWalk) {
	a, s := st.adv, &w.sums
	res.Adversary.AdversaryCount = a.count
	res.Adversary.ColluderCount = a.colluders.Len()
	res.Adversary.EclipseFraction = ratio(s.eclipsed, s.honest)
	res.Adversary.ColluderViewFraction = ratio(s.withColluder, s.honest)
	res.Adversary.ColluderIndegreeShare = ratio(s.colluderEntries, s.honestEntries)
	k := a.colluders.Len()
	if k == 0 {
		k = a.count
	}
	// The top k of the per-target reference counts; zeros past the referenced
	// targets add nothing.
	counts := slices.Clone(w.refs)
	slices.Sort(counts)
	top := 0
	for _, c := range counts[max(len(counts)-k, 0):] {
		top += int(c)
	}
	res.Adversary.TopKIndegreeShare = ratio(top, s.honestEntries)

	honest := func(id ident.NodeID) bool { return !hostile(st.net.Peer(id)) }
	honestIDs := make([]ident.NodeID, 0, len(w.ids))
	for _, id := range w.ids {
		if honest(id) {
			honestIDs = append(honestIDs, id)
		}
	}
	honestEdges := make([]graph.Edge, 0, len(w.edges))
	for _, e := range w.edges {
		if honest(e.From) && honest(e.To) {
			honestEdges = append(honestEdges, e)
		}
	}
	res.Adversary.HonestCluster = w.dense.BiggestClusterFraction(st.net.PeerCount(), honestIDs, honestEdges)
}
