package exp

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/view"
)

func baseScenarioCfg() Config {
	return Config{
		N: 150, Rounds: 40, NATRatio: 0.7, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 42, SampleEveryRounds: 10,
	}
}

// stormScenario is the full-surface scenario: Poisson churn, a flash crowd,
// a partition/heal cycle, link loss and jitter, a gateway failure, and a
// NAT-mix shift.
func stormScenario() *scenario.Scenario {
	natRatio := 0.9
	return &scenario.Scenario{
		Name:  "storm",
		Churn: &scenario.Churn{JoinsPerRound: 1.5, LeavesPerRound: 1.5, StartRound: 5},
		Link:  &scenario.Link{JitterMs: 20, Loss: 0.1},
		Events: []scenario.Event{
			{Round: 8, Kind: scenario.KindFlashCrowd, Count: 30},
			{Round: 12, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 8},
			{Round: 22, Kind: scenario.KindGatewayFailure, Groups: 2},
			{Round: 25, Kind: scenario.KindNATShift, NATRatio: &natRatio},
		},
	}
}

// TestQuiescentScenarioBitIdentical locks in the determinism contract's
// degenerate case: a non-nil but quiescent scenario must produce the exact
// same Result as no scenario at all — same RNG streams, same event order,
// same delivery path.
func TestQuiescentScenarioBitIdentical(t *testing.T) {
	for _, proto := range []Protocol{ProtoGeneric, ProtoNylon} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			cfg := baseScenarioCfg()
			cfg.Protocol = proto
			cfg.ChurnAtRound, cfg.ChurnFraction = 20, 0.3

			bare, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scenario = &scenario.Scenario{Name: "idle", GatewayGroupSize: 4}
			quiet, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Only the echoed Cfg may differ (it carries the scenario
			// pointer); every measured quantity must be bit-identical.
			bare.Cfg, quiet.Cfg = Config{}, Config{}
			if !reflect.DeepEqual(bare, quiet) {
				t.Errorf("quiescent scenario changed the run:\n bare: %+v\nquiet: %+v", bare, quiet)
			}
		})
	}
}

// TestScenarioRunDeterministic: a scenario-laden run is a pure function of
// (Config, Scenario, Seed).
func TestScenarioRunDeterministic(t *testing.T) {
	cfg := baseScenarioCfg()
	cfg.Scenario = stormScenario()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (Config, Scenario, Seed) produced different results:\n a: %+v\n b: %+v", a, b)
	}
	if a.Scenario.Joins == 0 || a.Scenario.Leaves == 0 {
		t.Errorf("storm scenario drove no churn: %+v", a.Scenario)
	}
	if a.Scenario.PartitionRounds != 8 {
		t.Errorf("PartitionRounds = %d, want 8", a.Scenario.PartitionRounds)
	}
	if a.Scenario.GatewayFailures != 2 {
		t.Errorf("GatewayFailures = %d, want 2", a.Scenario.GatewayFailures)
	}
	if a.Drops.LinkLost == 0 {
		t.Error("10% link loss lost no datagrams")
	}
	if a.Drops.Partitioned == 0 {
		t.Error("partition dropped no datagrams")
	}
	if a.TotalPeers <= cfg.N {
		t.Errorf("TotalPeers = %d, want > %d (joins occurred)", a.TotalPeers, cfg.N)
	}
}

// TestScenarioAcceptance1k is the acceptance-criteria run: Poisson churn, a
// partition/heal cycle and 10% link loss at 1,000 peers must be
// seed-deterministic.
func TestScenarioAcceptance1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-peer scenario run skipped in -short mode")
	}
	cfg := Config{
		N: 1000, Rounds: 30, NATRatio: 0.8, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 7, SampleEveryRounds: 5,
		Scenario: &scenario.Scenario{
			Name:  "acceptance",
			Churn: &scenario.Churn{JoinsPerRound: 3, LeavesPerRound: 3},
			Link:  &scenario.Link{Loss: 0.1},
			Events: []scenario.Event{
				{Round: 10, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 10},
			},
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("1k-peer scenario run is not seed-deterministic")
	}
	if a.BiggestCluster < 0.9 {
		t.Errorf("Nylon fell apart under the acceptance scenario: cluster %.2f", a.BiggestCluster)
	}
}

// TestScenarioJoinsGrowPopulation drives a pure flash-crowd scenario and
// checks the newcomers really join the overlay: they are alive, measured,
// and absorbed into the connected component.
func TestScenarioJoinsGrowPopulation(t *testing.T) {
	cfg := baseScenarioCfg()
	cfg.Scenario = &scenario.Scenario{
		Events: []scenario.Event{{Round: 10, Kind: scenario.KindFlashCrowd, Fraction: 0.5}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.N + cfg.N/2
	if res.TotalPeers != want {
		t.Errorf("TotalPeers = %d, want %d", res.TotalPeers, want)
	}
	if res.AlivePeers != want {
		t.Errorf("AlivePeers = %d, want %d (nobody departed)", res.AlivePeers, want)
	}
	if res.Scenario.Joins != uint64(cfg.N/2) {
		t.Errorf("Joins = %d, want %d", res.Scenario.Joins, cfg.N/2)
	}
	if res.BiggestCluster < 0.95 {
		t.Errorf("flash crowd not absorbed: cluster %.2f", res.BiggestCluster)
	}
	// The series must show the population step.
	var before, after int
	for _, pt := range res.Series {
		if pt.Round == 10 {
			before = pt.AlivePeers
		}
		if pt.Round == 20 {
			after = pt.AlivePeers
		}
	}
	if before != cfg.N || after != want {
		t.Errorf("series population step %d -> %d, want %d -> %d", before, after, cfg.N, want)
	}
}

// TestJoinPoolBytesFlat holds the seed pool of a mid-run join to scratch
// reuse: listing the roster for one joiner must not allocate bytes in
// proportion to the roster, or a flash crowd of k joiners into N peers costs
// O(k·N) bytes. A 2 000-peer world may cost no more per join than a 200-peer
// one.
func TestJoinPoolBytesFlat(t *testing.T) {
	perJoin := func(n int) float64 {
		cfg := baseScenarioCfg()
		cfg.N, cfg.Rounds = n, 2
		st, err := newRun(cfg.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		joiner := st.net.Peers()[0]
		if len(st.joinPool(joiner)) == 0 {
			t.Fatalf("%d peers: empty join pool", n)
		}
		const joins = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < joins; i++ {
			st.joinPool(joiner)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / joins
	}
	small, large := perJoin(200), perJoin(2000)
	if large > small+64 {
		t.Errorf("joinPool allocates %.0f B per join at 2 000 peers against %.0f B at 200", large, small)
	}
}

// TestScenarioMassLeaveMatchesLegacyShape checks mass_leave behaves like the
// legacy one-shot churn: the overlay loses the requested fraction and the
// recovery summary registers the disruption.
func TestScenarioMassLeaveMatchesLegacyShape(t *testing.T) {
	cfg := baseScenarioCfg()
	cfg.Rounds = 60
	cfg.SampleEveryRounds = 5
	cfg.Scenario = &scenario.Scenario{
		Events: []scenario.Event{{Round: 20, Kind: scenario.KindMassLeave, Fraction: 0.5}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantAlive := cfg.N - int(0.5*float64(cfg.N)+0.5)
	if res.AlivePeers != wantAlive {
		t.Errorf("AlivePeers = %d, want %d", res.AlivePeers, wantAlive)
	}
	if res.Recovery.WorstRound <= 20 {
		t.Errorf("recovery worst round %d, want after the leave at 20", res.Recovery.WorstRound)
	}
	if res.Recovery.RecoveredRound < 0 {
		t.Error("Nylon never recovered from a 50% mass leave")
	}
}

// TestPartitionLifetimes pins the partition edge cases: an auto-heal
// belongs to the partition that scheduled it (a later cut owns its own
// lifetime), and a duration reaching the run horizon keeps the partition in
// force through the final measurement, exactly like duration 0.
func TestPartitionLifetimes(t *testing.T) {
	base := baseScenarioCfg()
	base.Rounds = 40

	// Partition at 10 with duration 5; a second, run-long partition at 12.
	// The gen-tagged heal at 15 must not end the second cut, so the final
	// measurement sees a split overlay.
	cfg := base
	cfg.Scenario = &scenario.Scenario{
		Events: []scenario.Event{
			{Round: 10, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 5},
			{Round: 12, Kind: scenario.KindPartition, Fraction: 0.3},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BiggestCluster > 0.8 {
		t.Errorf("stale auto-heal ended the second partition: final cluster %.2f", res.BiggestCluster)
	}
	// First interval (10..12) plus second (12..40).
	if res.Scenario.PartitionRounds != 30 {
		t.Errorf("PartitionRounds = %d, want 30", res.Scenario.PartitionRounds)
	}

	// Duration past the horizon ≡ duration 0: both must report the split.
	overlong, end := base, base
	overlong.Scenario = &scenario.Scenario{
		Events: []scenario.Event{{Round: 30, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 100}},
	}
	end.Scenario = &scenario.Scenario{
		Events: []scenario.Event{{Round: 30, Kind: scenario.KindPartition, Fraction: 0.3}},
	}
	a, err := Run(overlong)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(end)
	if err != nil {
		t.Fatal(err)
	}
	if a.BiggestCluster > 0.8 {
		t.Errorf("overlong partition reported healed at measurement: cluster %.2f", a.BiggestCluster)
	}
	a.Cfg, b.Cfg = Config{}, Config{}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("duration past horizon differs from duration 0:\n a: %+v\n b: %+v", a, b)
	}
}

// TestGatewayFailureHugeGroupSize pins that a group size past the natted
// population makes one group of them all: counting the groups as
// (natted+size-1)/size wrapped negative and panicked in rand.Perm.
func TestGatewayFailureHugeGroupSize(t *testing.T) {
	cfg := Config{N: 20, Rounds: 3, NATRatio: 0.8, Protocol: ProtoNylon, Seed: 1}
	cfg.Scenario = &scenario.Scenario{
		GatewayGroupSize: 9223372036854775797,
		Events:           []scenario.Event{{Round: 1, Kind: scenario.KindGatewayFailure, Groups: 1}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario.GatewayFailures != 1 || res.Scenario.Leaves != 16 {
		t.Errorf("gateway failures %d, leaves %d; want 1 group of all 16 natted peers",
			res.Scenario.GatewayFailures, res.Scenario.Leaves)
	}
}

// TestScenarioValidationSurfacesInRun checks Config.validate wires scenario
// validation through with a useful message.
func TestScenarioValidationSurfacesInRun(t *testing.T) {
	cfg := baseScenarioCfg()
	cfg.Scenario = &scenario.Scenario{Link: &scenario.Link{Loss: 1.0}}
	if _, err := Run(cfg); err == nil {
		t.Error("loss = 1 accepted")
	}
	cfg = baseScenarioCfg()
	cfg.Scenario = &scenario.Scenario{Events: []scenario.Event{{Round: cfg.Rounds + 5, Kind: scenario.KindHeal}}}
	if _, err := Run(cfg); err == nil {
		t.Error("event past the run horizon accepted")
	}
	cfg = baseScenarioCfg()
	cfg.Scenario = &scenario.Scenario{Link: &scenario.Link{JitterMs: -3}}
	if _, err := Run(cfg); err == nil {
		t.Error("negative jitter accepted")
	}
}

// TestQuiescentScenarioNoExtraAllocs guards the fast path: a quiescent
// scenario must not add steady-state allocations — the driver is never even
// constructed, so the whole run allocates exactly what the legacy path does.
func TestQuiescentScenarioNoExtraAllocs(t *testing.T) {
	cfg := baseScenarioCfg()
	cfg.N, cfg.Rounds, cfg.SampleEveryRounds = 60, 12, 0

	run := func(c Config) func() {
		return func() {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := testing.AllocsPerRun(3, run(cfg))
	quiet := cfg
	quiet.Scenario = &scenario.Scenario{Name: "idle"}
	withScenario := testing.AllocsPerRun(3, run(quiet))
	if diff := withScenario - bare; diff > 8 || diff < -8 {
		t.Errorf("quiescent scenario changed allocations by %.0f (bare %.0f, quiescent %.0f)", diff, bare, withScenario)
	}
}

// TestHighChurnSlotGrowthDeterminism drives a membership meat-grinder whose
// joins outnumber the initial population several times over — pushing the
// peer slabs, the ID→slot index, the tick wheel and the shared selection
// counters through many growth cycles mid-run — and requires bit-identical
// results across runs and worker counts. This is the unit-sized version of
// examples/scenario-lab/slot-churn-50k.json.
func TestHighChurnSlotGrowthDeterminism(t *testing.T) {
	base := Config{
		N: 150, Rounds: 50, NATRatio: 0.8, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 42, SampleEveryRounds: 5,
		Scenario: &scenario.Scenario{
			Name:  "slot-grinder",
			Churn: &scenario.Churn{JoinsPerRound: 20, LeavesPerRound: 12, StartRound: 2},
			Events: []scenario.Event{
				{Round: 15, Kind: scenario.KindMassLeave, Fraction: 0.3},
				{Round: 25, Kind: scenario.KindFlashCrowd, Fraction: 0.5},
			},
		},
	}
	run := func(workers int) Result {
		cfg := base
		cfg.Workers = workers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	ref.Cfg.Workers = 0
	if ref.TotalPeers <= 2*base.N {
		t.Fatalf("scenario too tame: %d total peers from %d initial — wanted several slab growth cycles", ref.TotalPeers, base.N)
	}
	for _, workers := range []int{1, 4} {
		got := run(workers)
		got.Cfg.Workers = 0 // the echoed effective worker count legitimately differs
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d diverged from reference:\n ref %+v\n got %+v", workers, got, ref)
		}
	}
}
