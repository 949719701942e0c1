package exp

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestBatchedDeliveryInvariance pins the throughput engine's core contract:
// batched lane delivery only coalesces scheduler pops, it never reorders a
// delivery relative to the event keys. Every corpus leg — quiescent, the storm
// scenario (continuous churn, flash crowd, partition/heal, lossy jittered
// links), adversary churn with a 20% lying-rvp cohort, and lossy links, whose
// 80 ms jitter outlasts the 50 ms lookahead so datagrams wait in the held
// list across barriers — must reproduce its line in
// testdata/delivery_sha256.golden at every worker × shard combination: the
// leg, the executed event count and the SHA-256 of the JSON Result (config
// echo zeroed). The golden was recorded with one datagram delivered per
// scheduler event, so it stands for the unbatched engine. A change meant to
// move a leg regenerates its line from this test's output and says so.
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
		{"lossy-links", load("lossy-links.json"), 90}, // past the round-60 recovery
	}
	golden, err := os.ReadFile("testdata/delivery_sha256.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[strings.Fields(line)[0]] = line
	}
	if len(want) != len(legs) {
		t.Fatalf("golden holds %d legs, the test runs %d", len(want), len(legs))
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
				res := runCorpus(t, cfg)
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if line := fmt.Sprintf("%s %d %x", leg.name, res.EventsProcessed, sha256.Sum256(b)); line != want[leg.name] {
					t.Errorf("workers=%d shards=%d moved from the golden:\n got %s\nwant %s",
						grid.workers, grid.shards, line, want[leg.name])
				}
			}
		})
	}
}
