package probes

import (
	"time"

	"repro/internal/exp"
	"repro/internal/stats"
	"repro/internal/view"
)

// PaperConfig is the paper's §5 reference point, the shape every simulated
// workload of the benchmark runs: 80% natted peers in the 50/40/10 class mix,
// Nylon with (rand, healer, push/pull), view 15, and the eviction a deployed
// node runs with.
func PaperConfig(n, rounds, workers, shards int, seed int64) exp.Config {
	return exp.Config{
		N: n, Rounds: rounds, ViewSize: 15, NATRatio: 0.8, Mix: exp.DefaultMix,
		Protocol: exp.ProtoNylon, Selection: view.SelectRand, Merge: view.MergeHealer,
		PushPull: true, EvictUnanswered: true,
		Workers: workers, Shards: shards, Seed: seed,
	}
}

// expProbe times the fixed cost of one exp.Run — build, bootstrap and the
// final measure, everything but the rounds — at the two populations the
// workloads use: it is a share of run_wall_s at 10k and most of what a
// 300-peer sweep job costs.
func expProbe() ([]Metric, error) {
	fixed := func(n, runs int) (float64, error) {
		samples := make([]float64, runs)
		for i := range samples {
			start := time.Now()
			_, err := exp.Run(PaperConfig(n, 1, 1, 8, 1))
			if err != nil {
				return 0, err
			}
			samples[i] = time.Since(start).Seconds()
		}
		return stats.Quantile(samples, 0.5), nil
	}
	at10k, err := fixed(10_000, 3)
	if err != nil {
		return nil, err
	}
	at300, err := fixed(300, batches)
	if err != nil {
		return nil, err
	}
	return []Metric{
		{Name: "exp.fixed_cost_s_10k", Unit: "s", Value: at10k},
		{Name: "exp.fixed_cost_ms_300", Unit: "ms", Value: at300 * 1e3},
	}, nil
}
