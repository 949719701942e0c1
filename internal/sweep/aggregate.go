package sweep

import (
	"fmt"
	"math"

	"repro/internal/exp"
	"repro/internal/stats"
)

// band quantiles: the p10/p50/p90 triple every cell reports.
var bandQs = []float64{0.10, 0.50, 0.90}

// Band is a p10/p50/p90 quantile triple.
type Band struct {
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

func bandOf(xs []float64) Band {
	q := stats.Quantiles(xs, bandQs)
	return Band{P10: clean(q[0]), P50: clean(q[1]), P90: clean(q[2])}
}

// clean maps NaN to 0 so the artifact stays valid JSON (encoding/json
// rejects NaN). Cells are aggregated from at least one seed, so NaN only
// arises for defined-empty distributions (e.g. recovery rounds when no seed
// recovered), where the companion count/fraction field disambiguates.
func clean(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// BandPoint is one sampled round of a cell's aggregated health series.
type BandPoint struct {
	Round int `json:"round"`
	// Cluster is the biggest-cluster fraction band across seeds.
	Cluster Band `json:"cluster"`
	// StaleP50 is the median stale-reference fraction.
	StaleP50 float64 `json:"stale_p50"`
	// AliveP50 is the median alive population.
	AliveP50 float64 `json:"alive_p50"`
	// Eclipse is the eclipse-probability band across seeds, present only
	// for adversary cells (pointer + omitempty keeps honest artifacts
	// byte-identical to the pre-adversary format).
	Eclipse *Band `json:"eclipse,omitempty"`
}

// Cell is the aggregate of one (scenario, variant) pair across seeds.
type Cell struct {
	Scenario string  `json:"scenario"`
	Variant  string  `json:"variant"`
	Seeds    []int64 `json:"seeds"`

	// FinalCluster and WorstCluster are biggest-cluster fraction bands at
	// the end of the run and at each seed's worst sampled point.
	FinalCluster Band `json:"final_cluster"`
	WorstCluster Band `json:"worst_cluster"`
	// FinalStaleP50 is the median end-of-run stale fraction.
	FinalStaleP50 float64 `json:"final_stale_p50"`
	// CompletionP50 is the median shuffle completion rate.
	CompletionP50 float64 `json:"completion_p50"`

	// RecoveredFraction is the share of seeds whose overlay regained the
	// recovery threshold after its worst point; RecoveryRounds summarizes
	// worst→recovered durations over those seeds (all-zero when none
	// recovered — check RecoveredFraction first).
	RecoveredFraction float64 `json:"recovered_fraction"`
	RecoveryRounds    Band    `json:"recovery_rounds"`

	// Series is the per-round quantile band of the cell's health series.
	Series []BandPoint `json:"series"`

	// Adversary bands across seeds, present only when the cell's jobs ran
	// with adversary cohorts (pointers + omitempty: honest sweeps keep
	// producing byte-identical artifacts). Eclipse is the end-of-run
	// eclipse probability; ColluderShare the colluder indegree share;
	// HonestCluster the honest-subgraph partition resistance.
	Eclipse       *Band `json:"eclipse,omitempty"`
	ColluderShare *Band `json:"colluder_share,omitempty"`
	HonestCluster *Band `json:"honest_cluster,omitempty"`
}

// Artifact is the aggregated output of one sweep — a pure function of
// (spec, scenario files, seeds), marshaled deterministically: running the
// same sweep twice yields byte-identical JSON.
type Artifact struct {
	Name      string   `json:"name"`
	SpecHash  string   `json:"spec_hash"`
	Scenarios []string `json:"scenarios"`
	Variants  []string `json:"variants"`
	Seeds     []int64  `json:"seeds"`
	Cells     []Cell   `json:"cells"`
}

// Aggregate folds the grid's results (in grid order, as returned by
// Execute) into per-cell summaries and per-round bands.
func Aggregate(g *Grid, results []*exp.Result) (*Artifact, error) {
	if len(results) != len(g.Jobs) {
		return nil, fmt.Errorf("sweep: %d results for %d jobs", len(results), len(g.Jobs))
	}
	art := &Artifact{
		Name:      g.Spec.Name,
		SpecHash:  g.SpecHash,
		Scenarios: g.ScenarioNames(),
		Variants:  g.VariantNames(),
		Seeds:     g.Seeds,
	}
	nSeeds := len(g.Seeds)
	for k := 0; k < len(g.Jobs); k += nSeeds {
		cell, err := aggregateCell(g.Jobs[k:k+nSeeds], g.Seeds, results[k:k+nSeeds])
		if err != nil {
			return nil, err
		}
		art.Cells = append(art.Cells, cell)
	}
	return art, nil
}

// aggregateCell folds one cell's jobs, one per seed, and their results. The
// cell ran adversaries when its configuration declares cohorts; every seed of
// a cell shares that configuration.
func aggregateCell(jobs []Job, seeds []int64, results []*exp.Result) (Cell, error) {
	scenarioName, variant := jobs[0].Scenario, jobs[0].Variant
	cell := Cell{Scenario: scenarioName, Variant: variant, Seeds: seeds}
	hasAdv := len(jobs[0].Cfg.Scenario.AdversaryList()) > 0
	var (
		finals, worsts, stales, completions []float64
		recoveryRounds                      []float64
		recovered                           int
	)
	clusterRuns := make([][]float64, len(results))
	staleRuns := make([][]float64, len(results))
	aliveRuns := make([][]float64, len(results))
	var rounds []int
	var eclipses, shares, honests []float64
	eclipseRuns := make([][]float64, len(results))
	for i, res := range results {
		if res == nil {
			return Cell{}, fmt.Errorf("sweep: cell (%s, %s) missing result for seed %d", scenarioName, variant, seeds[i])
		}
		finals = append(finals, res.BiggestCluster)
		worsts = append(worsts, res.Recovery.WorstCluster)
		stales = append(stales, res.StaleFraction)
		completions = append(completions, res.CompletionRate)
		if res.Recovery.RecoveredRound >= 0 {
			recovered++
			recoveryRounds = append(recoveryRounds, float64(res.Recovery.RecoveredRound-res.Recovery.WorstRound))
		}
		// Series alignment: every seed of a cell runs the same config, so
		// the sampled rounds must agree; a mismatch means the cache holds
		// results from a different spec and must not be averaged silently.
		if i == 0 {
			rounds = make([]int, len(res.Series))
			for j, pt := range res.Series {
				rounds[j] = pt.Round
			}
		} else if len(res.Series) != len(rounds) {
			return Cell{}, fmt.Errorf("sweep: cell (%s, %s): seed %d sampled %d rounds, seed %d sampled %d",
				scenarioName, variant, seeds[0], len(rounds), seeds[i], len(res.Series))
		}
		clusterRuns[i] = make([]float64, len(res.Series))
		staleRuns[i] = make([]float64, len(res.Series))
		aliveRuns[i] = make([]float64, len(res.Series))
		eclipseRuns[i] = make([]float64, len(res.Series))
		for j, pt := range res.Series {
			if pt.Round != rounds[j] {
				return Cell{}, fmt.Errorf("sweep: cell (%s, %s): seed %d sampled round %d where seed %d sampled %d",
					scenarioName, variant, seeds[i], pt.Round, seeds[0], rounds[j])
			}
			clusterRuns[i][j] = pt.BiggestCluster
			staleRuns[i][j] = pt.StaleFraction
			aliveRuns[i][j] = float64(pt.AlivePeers)
			eclipseRuns[i][j] = pt.Eclipse
		}
		if hasAdv {
			eclipses = append(eclipses, res.Adversary.EclipseFraction)
			shares = append(shares, res.Adversary.ColluderIndegreeShare)
			honests = append(honests, res.Adversary.HonestCluster)
		}
	}
	cell.FinalCluster = bandOf(finals)
	cell.WorstCluster = bandOf(worsts)
	cell.FinalStaleP50 = clean(stats.Quantile(stales, 0.5))
	cell.CompletionP50 = clean(stats.Quantile(completions, 0.5))
	cell.RecoveredFraction = float64(recovered) / float64(len(results))
	cell.RecoveryRounds = bandOf(recoveryRounds)

	clusterBand := stats.PerRoundQuantiles(clusterRuns, bandQs)
	staleBand := stats.PerRoundQuantiles(staleRuns, []float64{0.5})
	aliveBand := stats.PerRoundQuantiles(aliveRuns, []float64{0.5})
	cell.Series = make([]BandPoint, len(rounds))
	for j, r := range rounds {
		cell.Series[j] = BandPoint{
			Round:    r,
			Cluster:  Band{P10: clean(clusterBand[j][0]), P50: clean(clusterBand[j][1]), P90: clean(clusterBand[j][2])},
			StaleP50: clean(staleBand[j][0]),
			AliveP50: clean(aliveBand[j][0]),
		}
	}
	if hasAdv {
		eb, sb, hb := bandOf(eclipses), bandOf(shares), bandOf(honests)
		cell.Eclipse, cell.ColluderShare, cell.HonestCluster = &eb, &sb, &hb
		eclipseBand := stats.PerRoundQuantiles(eclipseRuns, bandQs)
		for j := range cell.Series {
			b := Band{P10: clean(eclipseBand[j][0]), P50: clean(eclipseBand[j][1]), P90: clean(eclipseBand[j][2])}
			cell.Series[j].Eclipse = &b
		}
	}
	return cell, nil
}
