package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/view"
)

// fastCfg is a small configuration for the determinism, series and
// runs-per-point tests; the paper's claims are checked at figure cells
// (claims_test.go).
func fastCfg(proto Protocol, natRatio float64) Config {
	return Config{
		N: 250, Rounds: 90, NATRatio: natRatio, Protocol: proto,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		Seed: 42,
		// Nylon runs with no-reply eviction, as the figures' points do.
		EvictUnanswered: proto != ProtoGeneric,
	}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminism: a run is a pure function of its configuration.
func TestDeterminism(t *testing.T) {
	cfg := fastCfg(ProtoNylon, 0.7)
	cfg.N, cfg.Rounds = 120, 50
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs with the same seed differ:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	c := mustRun(t, cfg)
	if reflect.DeepEqual(a.BytesPerSecAll, c.BytesPerSecAll) && a.StaleFraction == c.StaleFraction && a.ChiSquareStat == c.ChiSquareStat {
		t.Error("different seeds produced identical metrics; RNG likely not wired through")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: -1},
		{NATRatio: 1.5},
		{NATRatio: -0.1},
		{NATRatio: math.NaN()},
		{Mix: NATMix{RC: 0.5}},
		{Mix: NATMix{RC: 1.5, PRC: -0.5}},
		{Mix: NATMix{RC: math.NaN(), PRC: 1}},
		{UPnPFraction: math.NaN()},
		{ChurnFraction: -0.1},
		{ChurnFraction: 1.0},
		{ChurnFraction: math.NaN()},
		{ChurnAtRound: 1000, Rounds: 100, ChurnFraction: 0.5},
		// Static-RVP binds every natted peer to a public one: a rounded natted
		// count of N leaves nobody to bind to.
		{Protocol: ProtoStaticRVP, N: 50, NATRatio: 1},
		{Protocol: ProtoStaticRVP, N: 1, NATRatio: 0.5},
		{ViewSize: 4097},
		{N: simnet.MaxPeers + 1},
		// Trace rings are allocated whole: this ran out of memory.
		{TraceCapacity: 100_000_000},
		// The last tick re-arms past the int64 clock: the first hung, the
		// second reported an empty run as a success.
		{N: 4, Rounds: 3, PeriodMs: 3e18},
		{N: 20, Rounds: 3_000_000_000_000_000},
		// Flash crowds past the population cap, by count, by fraction and
		// together: the first ran out of memory, the others panicked in
		// AddPeer.
		{N: 4, Rounds: 3, Scenario: flashCrowds(scenario.Event{Count: 1_000_000_000_000})},
		{N: simnet.MaxPeers / 4, Rounds: 3, Scenario: flashCrowds(scenario.Event{Fraction: 10})},
		{N: 4, Rounds: 3, Scenario: flashCrowds(scenario.Event{Count: simnet.MaxPeers / 2}, scenario.Event{Count: simnet.MaxPeers / 2})},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

// flashCrowds is a scenario of the given flash crowds, all at round 1.
func flashCrowds(evs ...scenario.Event) *scenario.Scenario {
	for i := range evs {
		evs[i].Round, evs[i].Kind = 1, scenario.KindFlashCrowd
	}
	return &scenario.Scenario{Events: evs}
}

func TestNATMixClasses(t *testing.T) {
	cs := DefaultMix.classes(100)
	if len(cs) != 100 {
		t.Fatalf("classes returned %d entries", len(cs))
	}
	counts := map[ident.NATClass]int{}
	for _, c := range cs {
		counts[c]++
	}
	if counts[ident.RestrictedCone] != 50 || counts[ident.PortRestrictedCone] != 40 || counts[ident.Symmetric] != 10 {
		t.Errorf("mix counts = %v", counts)
	}
	if got := DefaultMix.classes(0); got != nil {
		t.Errorf("classes(0) = %v", got)
	}
	// Remainders fall to RC.
	cs = DefaultMix.classes(3)
	if len(cs) != 3 {
		t.Errorf("classes(3) returned %d", len(cs))
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtoGeneric: "generic", ProtoNylon: "nylon", ProtoARRG: "arrg",
		ProtoStaticRVP: "static-rvp", Protocol(9): "protocol(9)",
	} {
		if got := p.String(); got != want {
			t.Errorf("Protocol(%d).String() = %q, want %q", p, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:   "test",
		Columns: []string{"x", "a", "b"},
		Rows:    []Row{{Label: "1", Values: []float64{2.5, 3}}},
	}
	if s := tb.String(); s == "" || s[0] != '#' {
		t.Errorf("String() = %q", s)
	}
	want := "x,a,b\n1,2.5,3\n"
	if got := tb.CSV(); got != want {
		t.Errorf("CSV() = %q, want %q", got, want)
	}
}

func TestMeanResult(t *testing.T) {
	rs := []Result{
		{BiggestCluster: 1, StaleFraction: 0.2, ChiSquareOK: true},
		{BiggestCluster: 0.5, StaleFraction: 0.4, ChiSquareOK: false},
	}
	m := meanResult(rs)
	if m.BiggestCluster != 0.75 || m.StaleFraction < 0.299 || m.StaleFraction > 0.301 {
		t.Errorf("meanResult = %+v", m)
	}
	if m.ChiSquareOK {
		t.Error("ChiSquareOK should AND across seeds")
	}
	if zero := meanResult(nil); zero.BiggestCluster != 0 || zero.Series != nil {
		t.Error("meanResult(nil) not zero")
	}
}

func TestRunSeedsAverages(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "test", Key: "nat%", Axis: fixed(50),
		Columns: columns(Column{"bytes", generic(view.SelectRand, view.MergeHealer, true, 15), bytesAll}),
	}
	var got []Table
	err := RunFigures([]Figure{fig}, Params{N: 100, Rounds: 40, Seeds: []int64{1, 2}, Workers: 2},
		func(_ Figure, tables []Table) { got = tables })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Rows) != 1 || got[0].Rows[0].Values[0] <= 0 {
		t.Errorf("averaged result lost bandwidth metric: %+v", got)
	}
}

// TestRunsPerPointResults pins the run phase's contract: per-seed results in
// seed order, each bit-identical to a direct single-worker Run of the
// defaulted point, whichever worker ran it.
func TestRunsPerPointResults(t *testing.T) {
	cfg := fastCfg(ProtoGeneric, 0.5)
	cfg.N, cfg.Rounds = 100, 40
	other := cfg
	other.NATRatio = 0.25
	seeds := []int64{3, 1}
	rs := startRuns([]Config{cfg.Defaults(), other.Defaults()}, seeds, 2)
	defer rs.stop()
	for pt, point := range []Config{cfg, other} {
		results, err := rs.wait(pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(seeds) {
			t.Fatalf("point %d has %d results for %d seeds", pt, len(results), len(seeds))
		}
		for i, seed := range seeds {
			direct := point
			direct.Seed = seed
			direct.Workers = 1
			want, err := Run(direct)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(results[i], want) {
				t.Errorf("point %d seed %d result differs from direct run", pt, seed)
			}
		}
	}
}

// TestRunFiguresReportsThePointThatFailed: a point Run rejects fails its
// figure by ID, after the figures before it were emitted.
func TestRunFiguresReportsThePointThatFailed(t *testing.T) {
	bad := Figure{
		ID: "bad", Title: "test", Key: "nat%", Axis: fixed(150),
		Columns: columns(Column{"cluster%", nylon(15), clusterPct}),
	}
	var emitted []string
	err := RunFigures([]Figure{Figures[1], bad}, tinyParams, func(f Figure, _ []Table) { emitted = append(emitted, f.ID) })
	if err == nil || !strings.Contains(err.Error(), "figure bad: ") || !strings.Contains(err.Error(), "NATRatio") {
		t.Errorf("err = %v, want figure bad's NATRatio rejection", err)
	}
	if len(emitted) != 1 || emitted[0] != Figures[1].ID {
		t.Errorf("emitted %v before the failure, want [%s]", emitted, Figures[1].ID)
	}
}

func TestSeedList(t *testing.T) {
	if got := SeedList(3); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("SeedList(3) = %v", got)
	}
	if got := SeedList(0); len(got) != 0 {
		t.Errorf("SeedList(0) = %v", got)
	}
	if got := SeedList(-1); len(got) != 0 {
		t.Errorf("SeedList(-1) = %v", got)
	}
}

func TestNATPctsAxis(t *testing.T) {
	got := natPcts(40, 99)(Params{NATPcts: []int{0, 40, 90, 100}})
	if len(got) != 2 || got[0] != 40 || got[1] != 90 {
		t.Errorf("natPcts(40, 99) = %v", got)
	}
}

// TestSeriesSampling checks the periodic overlay snapshots: one per interval,
// monotone rounds, and a visible churn dip followed by recovery.
func TestSeriesSampling(t *testing.T) {
	cfg := fastCfg(ProtoNylon, 0.6)
	cfg.Rounds = 80
	cfg.SampleEveryRounds = 10
	cfg.ChurnAtRound = 40
	cfg.ChurnFraction = 0.5
	res := mustRun(t, cfg)
	if len(res.Series) != 8 {
		t.Fatalf("series has %d points, want 8", len(res.Series))
	}
	for i, pt := range res.Series {
		if pt.Round != (i+1)*10 {
			t.Errorf("point %d at round %d, want %d", i, pt.Round, (i+1)*10)
		}
		if pt.BiggestCluster < 0 || pt.BiggestCluster > 1 {
			t.Errorf("point %d cluster %v out of range", i, pt.BiggestCluster)
		}
	}
	// Population halves at round 40.
	if res.Series[2].AlivePeers != 250 || res.Series[5].AlivePeers != 125 {
		t.Errorf("alive counts: %d then %d, want 250 then 125",
			res.Series[2].AlivePeers, res.Series[5].AlivePeers)
	}
	// Stale refs spike right after churn and recover by the end.
	afterChurn := res.Series[4].StaleFraction
	atEnd := res.Series[7].StaleFraction
	if afterChurn <= atEnd {
		t.Errorf("no churn spike: stale %.3f after churn vs %.3f at end", afterChurn, atEnd)
	}
}
