package exp

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/view"
)

// adversaryCorpus is the hostile leg of the trace corpus: a 20% poison-view
// cohort active from the start.
func adversaryCorpus() *scenario.Scenario {
	return &scenario.Scenario{
		Name:        "trace-adversary",
		Adversaries: []scenario.Adversary{{Strategy: "poison-view", Fraction: 0.2}},
	}
}

// TestTraceEffectInvariance is the tentpole acceptance check of the causal
// tracing layer. For a quiescent run, the storm scenario, and a 20%
// adversary cohort it asserts two things across worker/shard shapes:
//
//  1. Observer effect: a traced run's measured Result is bit-identical to
//     the untraced baseline — recording can never perturb the simulation.
//  2. Shape invariance: the merged trace itself is byte-identical for any
//     worker AND shard count, because events carry their global scheduler
//     key and every per-shard ring keeps full capacity.
func TestTraceEffectInvariance(t *testing.T) {
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
		{"adversary-20pct", adversaryCorpus(), 0},
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
			want := runCorpus(t, base) // untraced baseline

			var wantTrace []trace.Event
			for _, shape := range []struct{ workers, shards int }{
				{1, 1},
				{1, 16},
				{8, 1},
				{8, 16},
			} {
				cfg := base
				cfg.Workers = shape.workers
				cfg.Shards = shape.shards
				cfg.TraceCapacity = 2048
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Trace) == 0 {
					t.Fatalf("workers=%d shards=%d: traced run recorded no events", shape.workers, shape.shards)
				}
				gotTrace := res.Trace
				res.Trace, res.TraceDump = nil, ""
				got := normalize(res)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("traced run diverged from untraced baseline at workers=%d shards=%d",
						shape.workers, shape.shards)
				}
				if wantTrace == nil {
					wantTrace = gotTrace
				} else if !reflect.DeepEqual(wantTrace, gotTrace) {
					t.Errorf("merged trace diverged at workers=%d shards=%d (%d vs %d events)",
						shape.workers, shape.shards, len(wantTrace), len(gotTrace))
				}
			}
		})
	}
}

// traceCorpusRun executes a run whose trace capacity exceeds its event
// count, so no ring ever evicts and the merged trace is complete.
func traceCorpusRun(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.TraceCapacity = 1 << 20
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("run recorded no trace events")
	}
	if len(res.Trace) >= 1<<20 {
		t.Fatalf("trace hit capacity (%d events) — the completeness assumptions below do not hold", len(res.Trace))
	}
	return res
}

// TestTraceChainIntegrity checks the causal stamps on a complete trace of a
// small heavily-natted overlay: every chain must verify (key order, hop
// monotonicity, head PathRoot), every delivery's chain must start at its
// origin's hop-0 send, and the run must actually exercise multi-hop RVP
// forwarding — otherwise the test would pass vacuously.
func TestTraceChainIntegrity(t *testing.T) {
	res := traceCorpusRun(t, Config{
		N: 60, Rounds: 12, NATRatio: 0.8, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		Seed: 7,
	})
	order, byID := trace.Chains(res.Trace)
	if len(order) == 0 {
		t.Fatal("no chains in trace")
	}
	multiHop := 0
	deliveries := 0
	for _, id := range order {
		chain := byID[id]
		headSurvived, err := trace.VerifyChain(chain)
		if err != nil {
			t.Fatalf("chain %v: %v", id, err)
		}
		if !headSurvived {
			t.Fatalf("chain %v lost its head send despite unbounded capacity", id)
		}
		for _, e := range chain {
			if e.Op == trace.OpDeliver {
				deliveries++
			}
			if e.Hop >= 2 {
				multiHop++
			}
		}
	}
	if deliveries == 0 {
		t.Error("no deliveries in trace")
	}
	if multiHop == 0 {
		t.Error("no multi-hop RVP forwarding in a heavily natted nylon run")
	}
}

// TestTraceChainGolden pins the hop-by-hop shape of the deepest forwarding
// chain of a tiny fixed-seed topology: alternating send/deliver pairs with
// hop indices climbing one relay at a time, a single chain identity
// throughout, and the head carrying exactly PathRoot(origin, seq). The
// chain's content is a pure function of (Config, Seed) — if this test
// breaks, the protocol's forwarding behaviour changed, not the tracer.
func TestTraceChainGolden(t *testing.T) {
	res := traceCorpusRun(t, Config{
		N: 60, Rounds: 12, NATRatio: 0.8, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		Seed: 7,
	})
	order, byID := trace.Chains(res.Trace)
	var deepest []trace.Event
	var deepestID trace.ChainID
	for _, id := range order {
		chain := byID[id]
		if len(chain) > len(deepest) {
			deepest, deepestID = chain, id
		}
	}
	if len(deepest) < 4 {
		t.Fatalf("deepest chain %v has only %d events", deepestID, len(deepest))
	}
	if deepest[0].Path != trace.PathRoot(deepestID.Origin, deepestID.Seq) {
		t.Errorf("head path %#x != PathRoot %#x", deepest[0].Path, trace.PathRoot(deepestID.Origin, deepestID.Seq))
	}
	// Hop-by-hop structure: hop h's send is followed by its deliver (or a
	// drop, which ends the chain), and each relay extends the path hash.
	wantHop := uint8(0)
	for i := 0; i < len(deepest); i += 2 {
		send := deepest[i]
		if send.Op != trace.OpSend || send.Hop != wantHop {
			t.Fatalf("event %d: want hop-%d send, got %v", i, wantHop, send)
		}
		if i+1 >= len(deepest) {
			break
		}
		next := deepest[i+1]
		if next.Hop != wantHop {
			t.Fatalf("event %d: hop %d after hop-%d send", i+1, next.Hop, wantHop)
		}
		if next.Op != trace.OpDeliver {
			if _, drop := trace.DropCauseOf(next.Op); !drop || i+2 != len(deepest) {
				t.Fatalf("event %d: want deliver or terminal drop, got %v", i+1, next)
			}
			break
		}
		if next.From != send.From || next.To != send.To || next.Path != send.Path {
			t.Fatalf("deliver %d does not match its send: %v vs %v", i+1, next, send)
		}
		wantHop++
	}
	if wantHop < 2 {
		t.Errorf("deepest chain only reached hop %d — expected an RVP relay chain", wantHop)
	}
}

// TestTraceDropCrossCheck is the drop-taxonomy unification check: for a
// deterministic storm run (lossy links, partitions, churn — every drop
// cause exercised), the per-cause drop counts seen by the merged trace, the
// network's DropStats, and the scraped nylon_net_drops_* counters must
// agree exactly. All three views derive from trace.DropCauses; this pins
// that they can never drift.
func TestTraceDropCrossCheck(t *testing.T) {
	storm, err := scenario.Load("../../examples/scenario-lab/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpusCfg()
	cfg.Scenario = storm
	cfg.Rounds = 80
	cfg.Obs = obs.NewHub()
	res := traceCorpusRun(t, cfg)

	counts := make(map[trace.Op]uint64)
	for _, e := range res.Trace {
		counts[e.Op]++
	}
	vals := cfg.Obs.Registry().JSONValues()
	stats := reflect.ValueOf(res.Drops)
	total := uint64(0)
	for _, info := range trace.DropCauses {
		fromTrace := counts[info.Op]
		fromStats := stats.FieldByName(info.StatField).Uint()
		metric, ok := vals[info.Metric].(uint64)
		if !ok {
			t.Fatalf("%s: counter missing from registry scrape", info.Metric)
		}
		if fromTrace != fromStats || fromStats != metric {
			t.Errorf("%s: trace %d, DropStats.%s %d, counter %d — taxonomy views diverged",
				info.OpName, fromTrace, info.StatField, fromStats, metric)
		}
		total += fromTrace
	}
	if total == 0 {
		t.Error("storm run produced no drops — cross-check is vacuous")
	}
	if counts[trace.OpDropNAT] == 0 || counts[trace.OpDropLink] == 0 || counts[trace.OpDropPartition] == 0 {
		t.Errorf("expected NAT, link and partition drops, got %v", counts)
	}
}
