// Benchmarks regenerating, at reduced scale, every table and figure of the
// paper (see DESIGN.md's experiment index) plus micro-benchmarks of the hot
// substrates. BenchmarkFigures has one sub-benchmark per exp.Figures entry
// and reports the plotted values alongside the timing, so
// `go test -bench=. -benchmem` doubles as a miniature reproduction run:
//
//	BenchmarkFigures/9 ... 2.87 view=15
//
// The full-sweep reproduction lives in cmd/nylon-figs.
package nylon

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/traversal"
	"repro/internal/view"
	"repro/internal/wire"
)

// benchCfg is the shared reduced-scale configuration: large enough to show
// the paper's effects, small enough for -bench runs.
func benchCfg(proto exp.Protocol, natPct float64) exp.Config {
	return exp.Config{
		N: 250, Rounds: 80, NATRatio: natPct / 100, Protocol: proto,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: proto != exp.ProtoGeneric,
	}
}

func runPoint(b *testing.B, cfg exp.Config, seed int64) exp.Result {
	b.Helper()
	cfg.Seed = seed
	res, err := exp.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableT1Traversal regenerates the §2.2 traversal decision table
// (experiment T1): all 25 class pairs per iteration.
func BenchmarkTableT1Traversal(b *testing.B) {
	classes := []ident.NATClass{ident.Public, ident.FullCone, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric}
	var sink traversal.Method
	for i := 0; i < b.N; i++ {
		for _, src := range classes {
			for _, dst := range classes {
				sink = traversal.Decide(src, dst)
			}
		}
	}
	_ = sink
}

// BenchmarkFigures regenerates every entry of exp.Figures at the reduced
// scale through the runner nylon-figs uses, and reports the 90%-NAT row (the
// last row, for figures with another axis) of each table column by column.
// What the paper claims for each figure is in its table entry's comment.
func BenchmarkFigures(b *testing.B) {
	reduced := exp.Params{N: 250, Rounds: 80, Seeds: []int64{1}, NATPcts: []int{40, 90}, ViewSizes: []int{15}}
	for _, fig := range exp.Figures {
		fig := fig
		b.Run(fig.ID, func(b *testing.B) {
			var last []exp.Table
			for i := 0; i < b.N; i++ {
				if err := exp.RunFigures([]exp.Figure{fig}, reduced, func(_ exp.Figure, tables []exp.Table) { last = tables }); err != nil {
					b.Fatal(err)
				}
			}
			for _, t := range last {
				row := t.Rows[len(t.Rows)-1]
				for c, v := range row.Values {
					b.ReportMetric(v, strings.ReplaceAll(t.Columns[c+1], " ", "-"))
				}
			}
		})
	}
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkWireMarshal(b *testing.B) {
	msg := &wire.Message{
		Kind: wire.KindRequest,
		Src:  view.Descriptor{ID: 1, Class: ident.Public},
		Dst:  view.Descriptor{ID: 2, Class: ident.RestrictedCone},
		Via:  view.Descriptor{ID: 1},
	}
	for i := 0; i < 8; i++ {
		msg.Entries = append(msg.Entries, wire.ViewEntry{
			Desc: view.Descriptor{ID: ident.NodeID(i + 10), Class: ident.PortRestrictedCone}, RouteTTL: 90_000,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := msg.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewExchange measures one full shuffle round on the hot-path
// API (caller-owned send buffer); steady state must be 0 allocs/op.
func BenchmarkViewExchange(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := view.New(1, 15)
	for i := 2; i < 17; i++ {
		v.Add(view.Descriptor{ID: ident.NodeID(i), Age: uint32(i)})
	}
	recv := make([]view.Descriptor, 8)
	for i := range recv {
		recv[i] = view.Descriptor{ID: ident.NodeID(100 + i), Age: uint32(i)}
	}
	var sent []view.Descriptor
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sent = v.PrepareExchangeInto(view.MergeHealer, rng, sent[:0])
		v.ApplyExchange(view.MergeHealer, recv, sent, rng)
	}
}

func BenchmarkNylonTick(b *testing.B) {
	eng := core.NewNylon(core.Config{
		Self:        view.Descriptor{ID: 1, Addr: ident.Endpoint{IP: 1, Port: 1}, Class: ident.PortRestrictedCone},
		ViewSize:    15,
		Merge:       view.MergeHealer,
		PushPull:    true,
		HoleTimeout: 90_000,
		RNG:         rand.New(rand.NewSource(1)),
	})
	var seeds []view.Descriptor
	for i := 2; i < 17; i++ {
		seeds = append(seeds, view.Descriptor{
			ID: ident.NodeID(i), Addr: ident.Endpoint{IP: ident.IP(i), Port: 1}, Class: ident.RestrictedCone,
		})
	}
	eng.Bootstrap(0, seeds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Keep routes warm so ticks exercise the full path.
		if i%1000 == 0 {
			eng.Bootstrap(int64(i), seeds)
		}
		eng.Tick(int64(i))
	}
}

// BenchmarkSimulation1kPeers runs fully instrumented — metrics registry,
// health accumulators, timing probe — so the tracked wall-time baseline also
// guards the observability layer's overhead (per-shard atomics on the
// datagram path, view-mutation hooks on every shuffle). A hub observes
// exactly one run, hence the fresh hub per iteration.
func BenchmarkSimulation1kPeers(b *testing.B) {
	cfg := benchCfg(exp.ProtoNylon, 80)
	cfg.N, cfg.Rounds = 1000, 40
	b.ReportAllocs()
	defer reportBytesPerPeer(b, cfg.N)()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Obs = obs.NewHub()
		events += runPoint(b, cfg, int64(i+1)).EventsProcessed
	}
	reportEventsPerSec(b, events)
}

// reportEventsPerSec reports executed simulator events per wall-clock second
// over the benchmark loop — the delivery engine's throughput headline. events
// is the total EventsProcessed across all b.N iterations; EventsProcessed is
// part of the determinism contract, so only the wall clock can move this
// metric.
func reportEventsPerSec(b *testing.B, events uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
}

// reportBytesPerPeer reports the total bytes allocated per simulated peer
// over the benchmark loop: the deferred completion reads the monotone
// TotalAlloc counter, so GC cannot hide anything. B/peer is the memory
// headline the scale benchmarks track.
func reportBytesPerPeer(b *testing.B, peers int) func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(peers), "B/peer")
	}
}

// BenchmarkScenarioChurn1k is BenchmarkSimulation1kPeers under a full
// adversity scenario: continuous Poisson churn, a partition/heal cycle, and
// lossy jittered links — the scenario engine's tracked cost. The nil-scenario
// baseline must stay within noise of BenchmarkSimulation1kPeers.
func BenchmarkScenarioChurn1k(b *testing.B) {
	cfg := benchCfg(exp.ProtoNylon, 80)
	cfg.N, cfg.Rounds = 1000, 40
	cfg.Scenario = &scenario.Scenario{
		Name:  "bench-storm",
		Churn: &scenario.Churn{JoinsPerRound: 3, LeavesPerRound: 3, StartRound: 5},
		Link:  &scenario.Link{JitterMs: 20, Loss: 0.05},
		Events: []scenario.Event{
			{Round: 15, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 10},
		},
	}
	b.ReportAllocs()
	var last exp.Result
	var events uint64
	for i := 0; i < b.N; i++ {
		last = runPoint(b, cfg, int64(i+1))
		events += last.EventsProcessed
	}
	b.ReportMetric(last.BiggestCluster*100, "cluster-%")
	reportEventsPerSec(b, events)
}

// BenchmarkSimulation10kPeers is the paper-scale population (§5: 10,000
// peers) at a reduced round budget — the scale target the hot-path work is
// sized against. Expect seconds per iteration; run with -benchtime 1x.
func BenchmarkSimulation10kPeers(b *testing.B) {
	cfg := benchCfg(exp.ProtoNylon, 80)
	cfg.N, cfg.Rounds = 10_000, 40
	b.ReportAllocs()
	defer reportBytesPerPeer(b, cfg.N)()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runPoint(b, cfg, int64(i+1)).EventsProcessed
	}
	reportEventsPerSec(b, events)
}

// BenchmarkSimulation100kPeers is the 10×-paper-scale population the sharded
// kernel exists for: 100,000 peers on 32 shards. One iteration finishes in
// well under a minute per worker-saturated core-set (and in single-digit
// minutes even sequentially). Skipped under -short (the generic CI bench
// smoke); the dedicated CI step runs it explicitly with -benchtime 1x.
func BenchmarkSimulation100kPeers(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-peer run skipped in -short mode")
	}
	cfg := benchCfg(exp.ProtoNylon, 80)
	cfg.N, cfg.Rounds = 100_000, 20
	cfg.Shards = 32
	b.ReportAllocs()
	defer reportBytesPerPeer(b, cfg.N)()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runPoint(b, cfg, int64(i+1)).EventsProcessed
	}
	reportEventsPerSec(b, events)
}

// BenchmarkSimulation1MPeers is the paper-exceeding scale target of the
// memory-compaction work (DESIGN.md §7): one million peers for 20 rounds,
// which must fit in 8 GB of heap. Expect ~10 minutes per iteration per core;
// run with -benchtime 1x. Skipped under -short. The shard count is lower
// than the 100k benchmark's relative to the population on purpose: each
// shard's descriptor intern table scales with the distinct peers that shard
// hears about (approaching N in a well-mixed overlay), so at 1M peers extra
// shards buy parallelism at a measurable memory price.
func BenchmarkSimulation1MPeers(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-peer run skipped in -short mode")
	}
	cfg := benchCfg(exp.ProtoNylon, 80)
	cfg.N, cfg.Rounds = 1_000_000, 20
	cfg.Shards = 16
	b.ReportAllocs()
	defer reportBytesPerPeer(b, cfg.N)()
	var peak, events uint64
	for i := 0; i < b.N; i++ {
		events += runPoint(b, cfg, int64(i+1)).EventsProcessed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
	}
	b.ReportMetric(float64(peak)/(1<<30), "heap-GB")
	reportEventsPerSec(b, events)
}
