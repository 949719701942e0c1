package exp

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/view"
)

// advScenario is the invariance corpus's hostile environment: a 20%
// poison-view cohort on top of continuous churn, so adversary assignment is
// exercised both at build time and at mid-run joins.
func advScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "adversary-invariance",
		Churn: &scenario.Churn{JoinsPerRound: 1, LeavesPerRound: 1, StartRound: 5},
		Adversaries: []scenario.Adversary{
			{Strategy: "poison-view", Fraction: 0.2, FromRound: 5},
		},
	}
}

// TestAdversaryInvariance extends the kernel's determinism contract to the
// Byzantine layer: a 1000-peer run with 20% view poisoners is bit-identical
// — attack metrics, series and all — across worker counts 1, 2, 8 and shard
// counts 1 and 16. Cohort membership and wrapper randomness must therefore
// be pure functions of (Seed, peer index), never of scheduling.
func TestAdversaryInvariance(t *testing.T) {
	cfg := Config{
		N: 1000, Rounds: 40, NATRatio: 0.7, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 99, SampleEveryRounds: 10,
		Scenario: advScenario(),
	}
	cfg.Workers = 1
	cfg.Shards = 1
	want := runCorpus(t, cfg)
	if want.Adversary.AdversaryCount == 0 {
		t.Fatal("adversary corpus assigned no adversaries")
	}
	if want.Adversary.ColluderIndegreeShare == 0 {
		t.Fatal("poison-view cohort captured no view entries — attack not engaged")
	}
	for _, leg := range []struct{ workers, shards int }{{2, 1}, {8, 1}, {1, 16}, {8, 16}} {
		cfg.Workers, cfg.Shards = leg.workers, leg.shards
		got := runCorpus(t, cfg)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d shards=%d diverged from workers=1 shards=1:\nwant: %+v\n got: %+v",
				leg.workers, leg.shards, want, got)
		}
	}
}

// TestAdversaryResultGolden pins the measured results of hostile runs: for
// every protocol under a 20% poison-view and a 20% lying-rvp cohort, and for a
// static-RVP run under churn with no adversary, the SHA-256 of the JSON Result
// (config echo zeroed) equals the line in testdata/adversary_results.golden,
// at one shard and at sixteen. The golden was generated before the adversary
// census moved into the measurement walk; the invariance suites compare runs
// of one build with each other, this compares a build with the one before it.
// A change meant to move a row regenerates the golden from this test's output
// and says so.
func TestAdversaryResultGolden(t *testing.T) {
	churn := &scenario.Churn{JoinsPerRound: 1, LeavesPerRound: 1, StartRound: 5}
	type row struct {
		name  string
		proto Protocol
		sc    *scenario.Scenario
	}
	var rows []row
	for _, proto := range ckProtocols {
		for _, strategy := range []string{"poison-view", "lying-rvp"} {
			rows = append(rows, row{proto.String() + "/" + strategy, proto, &scenario.Scenario{
				Name:        strategy,
				Churn:       churn,
				Adversaries: []scenario.Adversary{{Strategy: strategy, Fraction: 0.2, FromRound: 10}},
			}})
		}
	}
	rows = append(rows, row{"static-rvp/churn", ProtoStaticRVP, &scenario.Scenario{Name: "churn", Churn: churn}})

	lines := make([]string, len(rows))
	t.Run("grid", func(t *testing.T) {
		for i, r := range rows {
			i, r := i, r
			t.Run(r.name, func(t *testing.T) {
				t.Parallel()
				for _, shape := range []struct{ workers, shards int }{{1, 1}, {2, 16}} {
					res, err := Run(Config{
						N: 200, Rounds: 40, NATRatio: 0.7, Protocol: r.proto,
						Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
						EvictUnanswered: true, Seed: 27, SampleEveryRounds: 5,
						Scenario: r.sc, Workers: shape.workers, Shards: shape.shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(r.sc.Adversaries) > 0 && res.Adversary.AdversaryCount == 0 {
						t.Fatal("no cohort drafted")
					}
					res.Cfg = Config{}
					b, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					line := fmt.Sprintf("%s %x", r.name, sha256.Sum256(b))
					if lines[i] == "" {
						lines[i] = line
					} else if line != lines[i] {
						t.Errorf("%d shards measured otherwise than 1 shard:\n%s\n%s", shape.shards, line, lines[i])
					}
				}
			})
		}
	})
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/adversary_results.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("hostile results moved (see the comment on this test); now:\n%s", got)
	}
}

// TestNilAdversaryZeroOverhead pins the fast path: a scenario with no
// adversary block produces a Result bit-identical to the same run with no
// scenario-level adversary machinery at all — no wrapper, no metric, no
// perturbation of a single RNG stream.
func TestNilAdversaryZeroOverhead(t *testing.T) {
	cfg := corpusCfg()
	plain := runCorpus(t, cfg)

	cfg.Scenario = &scenario.Scenario{Name: "empty"}
	withEmpty := runCorpus(t, cfg)
	// The scenario echo differs by design; measured quantities must not.
	withEmpty.Scenario = plain.Scenario
	if !reflect.DeepEqual(plain, withEmpty) {
		t.Errorf("empty scenario perturbed the run:\nplain: %+v\n with: %+v", plain, withEmpty)
	}
	if plain.Adversary != (AdversaryStats{}) {
		t.Errorf("honest run carries adversary stats: %+v", plain.Adversary)
	}
}

// TestAdversaryAssignmentStable: cohort membership is a pure function of
// (seed, spec order, peer index) — the same seed always drafts the same
// peers, and different specs draw from independent streams.
func TestAdversaryAssignmentStable(t *testing.T) {
	sc := &scenario.Scenario{
		Adversaries: []scenario.Adversary{
			{Strategy: "lying-rvp", Fraction: 0.1},
			{Strategy: "free-ride", Fraction: 0.1},
		},
	}
	if err := sc.Validate(40); err != nil {
		t.Fatal(err)
	}
	mk := func() *adversaryState {
		return newAdversaryState(Config{Seed: 7, PeriodMs: 5000, Scenario: sc}.Defaults())
	}
	a, b := mk(), mk()
	firsts := 0
	for idx := 0; idx < 500; idx++ {
		sa, sb := a.specFor(idx, 0), b.specFor(idx, 0)
		if (sa == nil) != (sb == nil) {
			t.Fatalf("peer %d drafted in one state only", idx)
		}
		if sa == nil {
			continue
		}
		if sa.strategy != sb.strategy {
			t.Fatalf("peer %d drafted into different cohorts", idx)
		}
		if sa.strategy == a.specs[0].strategy {
			firsts++
		}
	}
	if firsts == 0 {
		t.Fatal("first spec drafted nobody at fraction 0.1 over 500 peers")
	}
}
