package exp

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// TestBatchedDeliveryInvariance pins the throughput engine's core contract:
// batched lane delivery (the default) and strict per-datagram delivery are
// the same machine. For every corpus leg — quiescent, the storm scenario
// (continuous churn, flash crowd, partition/heal, lossy jittered links) and
// the adversary-churn scenario (Byzantine peers under churn) — the batched
// run must be bit-identical to the per-datagram run at every worker × shard
// combination, because batching only coalesces scheduler pops; it never
// reorders deliveries relative to the event keys.
func TestBatchedDeliveryInvariance(t *testing.T) {
	load := func(name string) *scenario.Scenario {
		s, err := scenario.Load("../../examples/scenario-lab/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// The adversary corpus file carries the churn timeline; the Byzantine
	// cohort itself is injected by the harness (as nylon-sim's -adversary
	// flag does), so wrapped engines and relay denials are on
	// the delivery path under test.
	adv := load("adversary-churn.json")
	adv.Adversaries = []scenario.Adversary{{Strategy: "lying-rvp", Fraction: 0.2}}
	legs := []struct {
		name     string
		scenario *scenario.Scenario
		rounds   int
	}{
		{"quiescent", nil, 0},
		{"storm", load("storm.json"), 80}, // past the round-70 flash crowd
		{"adversary", adv, 0},
	}
	// Per-datagram delivery is the network's reference switch, not a Config
	// field: the reference leg is Run with that switch thrown on the wired
	// network before the first event.
	runPerDatagram := func(t *testing.T, cfg Config) Result {
		t.Helper()
		st := wireWorld(t, cfg)
		st.net.SetPerDatagramDelivery(true)
		res, err := st.runToHorizon()
		if err != nil {
			t.Fatal(err)
		}
		return normalize(res)
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			for _, grid := range []struct{ workers, shards int }{
				{1, 1}, {1, 16}, {8, 1}, {8, 16},
			} {
				cfg := corpusCfg()
				cfg.Scenario = leg.scenario
				if leg.rounds > 0 {
					cfg.Rounds = leg.rounds
				}
				cfg.Workers = grid.workers
				cfg.Shards = grid.shards
				batched := runCorpus(t, cfg)
				perDatagram := runPerDatagram(t, cfg)
				if !reflect.DeepEqual(batched, perDatagram) {
					t.Errorf("workers=%d shards=%d: batched delivery diverged from per-datagram:\nbatched:      %+v\nper-datagram: %+v",
						grid.workers, grid.shards, batched, perDatagram)
				}
			}
		})
	}
}
