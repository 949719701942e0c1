package exp

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestObserverEffectInvariance pins the observability layer's determinism
// contract (DESIGN.md §9): attaching the full instrumentation stack — metrics
// registry, health accumulators, kernel timing probe — must leave the Result
// bit-identical to an uninstrumented run, at every worker and shard count,
// quiescent and under the storm scenario. The observed legs run through
// runVerified, so at every sample round the measurement walk is cross-checked
// against the serial reference sweep and the accumulators against a recount.
func TestObserverEffectInvariance(t *testing.T) {
	storm, err := scenario.Load("../../examples/scenario-lab/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		name     string
		scenario *scenario.Scenario
		rounds   int
	}{
		{"quiescent", nil, 0},
		{"storm", storm, 80},
	} {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			base := corpusCfg()
			base.Scenario = leg.scenario
			if leg.rounds > 0 {
				base.Rounds = leg.rounds
			}
			base.Workers = 1
			want := runCorpus(t, base)
			for _, shape := range []struct{ workers, shards int }{
				{1, 1},
				{1, 16},
				{8, 1},
				{8, 16},
			} {
				cfg := base
				cfg.Workers = shape.workers
				cfg.Shards = shape.shards
				cfg.Obs = obs.NewHub() // a hub observes exactly one run
				got := runVerified(t, cfg)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("metrics-on run diverged at workers=%d shards=%d:\noff: %+v\n on: %+v",
						shape.workers, shape.shards, want, got)
				}
				if cfg.Obs.Health() == nil || cfg.Obs.Health().Alive() == 0 {
					t.Errorf("workers=%d shards=%d: hub was not bound or saw no peers", shape.workers, shape.shards)
				}
				if cfg.Obs.Timing() == nil || cfg.Obs.Timing().Events() == 0 {
					t.Errorf("workers=%d shards=%d: timing probe recorded no events", shape.workers, shape.shards)
				}
			}
		})
	}
}

// TestHubHealthMatchesResult cross-checks the end-of-run accumulator state
// against the Result's own final sample, and the accumulators against a
// recount at every sample round.
func TestHubHealthMatchesResult(t *testing.T) {
	cfg := corpusCfg()
	cfg.Obs = obs.NewHub()
	res := runVerified(t, cfg)
	h := cfg.Obs.Health()
	if got, want := h.Alive(), int64(res.AlivePeers); got != want {
		t.Errorf("Health.Alive = %d, Result.AlivePeers = %d", got, want)
	}
	if h.Total() != int64(cfg.N) {
		t.Errorf("Health.Total = %d, want N = %d", h.Total(), cfg.N)
	}
	if h.Entries() == 0 || h.AliveEntries() > h.Entries() {
		t.Errorf("implausible entry tallies: %d total, %d alive", h.Entries(), h.AliveEntries())
	}
}
