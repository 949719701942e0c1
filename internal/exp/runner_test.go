package exp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ident"
	"repro/internal/simnet"
	"repro/internal/view"
)

// fastCfg is a small configuration that still exhibits the paper's
// qualitative behaviours.
func fastCfg(proto Protocol, natRatio float64) Config {
	return Config{
		N: 250, Rounds: 90, NATRatio: natRatio, Protocol: proto,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		Seed: 42,
		// The §5 Nylon experiments run with no-reply eviction, like any
		// deployable implementation; the §3 baseline figures disable it
		// explicitly where fidelity to Fig. 1 matters.
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

// TestNylonPreservesSamplingUnderNATs checks the paper's headline claims at
// 80% NATs: no partition, few stale references, natted peers represented in
// views near their population share, high shuffle completion.
func TestNylonPreservesSamplingUnderNATs(t *testing.T) {
	res := mustRun(t, fastCfg(ProtoNylon, 0.8))
	if res.BiggestCluster < 0.99 {
		t.Errorf("biggest cluster = %.2f, want ~1.0", res.BiggestCluster)
	}
	if res.StaleFraction > 0.15 {
		t.Errorf("stale fraction = %.2f, want < 0.15", res.StaleFraction)
	}
	if res.NattedNonStale < 0.6 {
		t.Errorf("natted share of non-stale refs = %.2f, want ≈ 0.8", res.NattedNonStale)
	}
	if res.CompletionRate < 0.85 {
		t.Errorf("completion rate = %.2f, want > 0.85", res.CompletionRate)
	}
	if res.AvgChainLen <= 0 || res.AvgChainLen > 5 {
		t.Errorf("chain length = %.2f, want within (0,5] per Fig. 9", res.AvgChainLen)
	}
}

// TestBaselineDegradesUnderNATs checks the Section 3 pathologies at 80% PRC
// NATs: many stale references and natted peers starkly under-represented.
func TestBaselineDegradesUnderNATs(t *testing.T) {
	cfg := fastCfg(ProtoGeneric, 0.8)
	cfg.Mix = prcOnly
	res := mustRun(t, cfg)
	if res.StaleFraction < 0.2 {
		t.Errorf("baseline stale fraction = %.2f, want > 0.2", res.StaleFraction)
	}
	// 80% of peers natted but far fewer of the usable references.
	if res.NattedNonStale > 0.3 {
		t.Errorf("baseline natted non-stale share = %.2f, want « 0.8", res.NattedNonStale)
	}
	if res.CompletionRate > 0.8 {
		t.Errorf("baseline completion = %.2f, want well below Nylon's", res.CompletionRate)
	}
}

// TestBaselinePartitionsAtFullNAT: with every peer natted the baseline
// overlay falls apart entirely (Fig. 2's right edge).
func TestBaselinePartitionsAtFullNAT(t *testing.T) {
	cfg := fastCfg(ProtoGeneric, 1.0)
	cfg.Mix = prcOnly
	// Decay takes several hole-timeout windows (18 rounds each) to erase
	// the bootstrap holes.
	cfg.Rounds = 200
	res := mustRun(t, cfg)
	if res.BiggestCluster > 0.5 {
		t.Errorf("baseline biggest cluster at 100%% NAT = %.2f, want < 0.5", res.BiggestCluster)
	}
	// Nylon survives the same setting.
	nylon := mustRun(t, fastCfg(ProtoNylon, 1.0))
	if nylon.BiggestCluster < 0.9 {
		t.Errorf("nylon biggest cluster at 100%% NAT = %.2f, want > 0.9", nylon.BiggestCluster)
	}
}

// TestNylonChurnResilience reproduces Fig. 10's headline: Nylon tolerates
// the departure of half the peers without partitioning.
func TestNylonChurnResilience(t *testing.T) {
	cfg := fastCfg(ProtoNylon, 0.6)
	cfg.Rounds = 120
	cfg.ChurnAtRound = 30
	cfg.ChurnFraction = 0.5
	res := mustRun(t, cfg)
	if res.AlivePeers != 125 {
		t.Fatalf("alive peers = %d, want 125", res.AlivePeers)
	}
	if res.BiggestCluster < 0.95 {
		t.Errorf("biggest cluster after 50%% churn = %.2f, want > 0.95", res.BiggestCluster)
	}
}

// TestNylonRandomnessComparableToNATFree: the chi-square statistic of the
// sample stream under heavy NATs stays within 2x of the NAT-free overlay's,
// while the NAT-oblivious baseline blows up (the §5 randomness check).
func TestNylonRandomnessComparableToNATFree(t *testing.T) {
	free := mustRun(t, fastCfg(ProtoGeneric, 0))
	nylon := mustRun(t, fastCfg(ProtoNylon, 0.8))
	base := mustRun(t, fastCfg(ProtoGeneric, 0.8))
	if free.ChiSquareStat <= 0 || nylon.ChiSquareStat <= 0 {
		t.Fatalf("chi-square stats missing: free=%v nylon=%v", free.ChiSquareStat, nylon.ChiSquareStat)
	}
	if nylon.ChiSquareStat > 2*free.ChiSquareStat {
		t.Errorf("nylon chi2/dof = %.1f vs NAT-free %.1f; randomness not preserved", nylon.ChiSquareStat, free.ChiSquareStat)
	}
	if base.ChiSquareStat < 2*nylon.ChiSquareStat {
		t.Errorf("baseline chi2/dof = %.1f should far exceed nylon's %.1f under NATs", base.ChiSquareStat, nylon.ChiSquareStat)
	}
}

// TestARRGBetterThanGenericWorseThanNylon places the cache baseline between
// the extremes, as the paper's §1 discussion predicts.
func TestARRGBetterThanGenericWorseThanNylon(t *testing.T) {
	cfgA := fastCfg(ProtoARRG, 0.9)
	cfgA.Mix = prcOnly
	arrg := mustRun(t, cfgA)
	cfgG := fastCfg(ProtoGeneric, 0.9)
	cfgG.Mix = prcOnly
	gen := mustRun(t, cfgG)
	if arrg.CompletionRate <= gen.CompletionRate {
		t.Errorf("ARRG completion %.2f not better than generic %.2f", arrg.CompletionRate, gen.CompletionRate)
	}
	nylon := mustRun(t, fastCfg(ProtoNylon, 0.9))
	if arrg.NattedNonStale >= nylon.NattedNonStale {
		t.Errorf("ARRG natted representation %.2f should trail Nylon's %.2f", arrg.NattedNonStale, nylon.NattedNonStale)
	}
}

// TestStaticRVPLoadImbalance verifies the §4 strawman's pathology: public
// peers carry a large traffic multiple of natted peers' load, while Nylon
// keeps the two within a narrow band.
func TestStaticRVPLoadImbalance(t *testing.T) {
	cfg := fastCfg(ProtoStaticRVP, 0.8)
	res := mustRun(t, cfg)
	if res.BytesPerSecPublic < 1.5*res.BytesPerSecNatted {
		t.Errorf("static RVP public load %.0f B/s not ≫ natted %.0f B/s", res.BytesPerSecPublic, res.BytesPerSecNatted)
	}
	nylon := mustRun(t, fastCfg(ProtoNylon, 0.8))
	if nylon.BytesPerSecPublic > 1.3*nylon.BytesPerSecNatted {
		t.Errorf("nylon public load %.0f B/s vs natted %.0f B/s: not evenly spread", nylon.BytesPerSecPublic, nylon.BytesPerSecNatted)
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
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
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
