package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/view"
)

// Params scales a figure reproduction. The zero value reproduces the paper's
// curves at laptop scale; set N=10000, Rounds≈2000 and 30 seeds to match the
// paper's setup exactly.
type Params struct {
	N      int
	Rounds int
	Seeds  []int64
	// NATPcts are the x-axis points (percent of natted peers).
	NATPcts []int
	// ViewSizes are the view sizes compared (paper: 15 and 27).
	ViewSizes []int
	// Workers bounds how many simulations run at once (0 = one per core).
	// Results are identical for any value.
	Workers int
}

func (p Params) defaults() Params {
	if p.N == 0 {
		p.N = 600
	}
	if p.Rounds == 0 {
		p.Rounds = 210
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []int64{1, 2, 3}
	}
	if len(p.NATPcts) == 0 {
		p.NATPcts = []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	}
	if len(p.ViewSizes) == 0 {
		p.ViewSizes = []int{15, 27}
	}
	return p
}

// Column is one curve of a figure: the experiment point it runs at row-axis
// value x, and the number it plots from that point's seed-mean Result.
type Column struct {
	Name   string
	Config func(p Params, x int) Config
	Metric func(Result) float64
}

// Figure is one reproduced figure as data: RunFigures is the only code that
// executes one. Axis and Columns are generators over Params because the NAT
// percentages and view sizes of a reproduction are parameters, not constants.
type Figure struct {
	ID    string
	Title string
	// Key heads the row-label column; Axis lists the row values and Label
	// prints one (nil = decimal).
	Key   string
	Axis  func(Params) []int
	Label func(x int) string
	// Columns lists the curves, left to right.
	Columns func(Params) []Column
	// Split, when set, makes the figure one table per returned part: the
	// part's Params generate that table's axis and columns, and its Suffix
	// is appended to the title.
	Split func(Params) []Part
}

// Part is one table of a split figure.
type Part struct {
	Suffix string
	Params Params
}

// Figures is the paper's evaluation plus this repository's ablations, in
// presentation order. Each entry's comment says what the figure plots; what
// the paper claims of it is stated once, as rows of the claims registry
// (claims_test.go), which DESIGN.md §3 indexes.
var Figures = []Figure{
	// Figure 2: the biggest cluster of the six NAT-oblivious configurations
	// as PRC NATs spread; the paper's x-axis starts at 40%.
	{ID: "2", Title: "Fig. 2 — biggest cluster (%) vs NAT%", Key: "nat%",
		Axis: natPcts(40, 100), Split: byViewSize, Columns: fig2Columns},
	// Figure 3: stale references of the (push/pull, rand, healer) baseline,
	// per view size.
	{ID: "3", Title: "Fig. 3 — stale references (%) vs NAT%", Key: "nat%",
		Axis: natPcts(0, 100), Columns: perViewSize(baseline, stalePct)},
	// Figure 4: the natted share of the baseline's usable references.
	{ID: "4", Title: "Fig. 4 — non-stale natted references (%) vs NAT%", Key: "nat%",
		Axis: natPcts(0, 100), Columns: perViewSize(baseline, nattedPct)},
	// §5 "Correctness": Nylon's biggest cluster, stale references, natted
	// share, sampling randomness and shuffle completion.
	{ID: "c", Title: "§5 Correctness — Nylon: partitions, stale refs, randomness", Key: "nat%",
		Axis: natPcts(0, 100), Columns: columns(
			Column{"cluster%", nylon(15), clusterPct},
			Column{"stale%", nylon(15), stalePct},
			Column{"natted-nonstale%", nylon(15), nattedPct},
			Column{"chi2/dof", nylon(15), chiSquare},
			Column{"completion%", nylon(15), completionPct})},
	// Figure 7: bytes per second sent+received per peer under Nylon and the
	// (push/pull, rand, healer) reference.
	{ID: "7", Title: "Fig. 7 — bytes/s per peer vs NAT%", Key: "nat%",
		Axis: natPcts(0, 100), Columns: columns(
			Column{"nylon", nylon(15), bytesAll},
			Column{"reference", engine(ProtoGeneric, DefaultMix), bytesAll})},
	// Figure 8: the load of public and of natted peers under Nylon. Both
	// populations must exist.
	{ID: "8", Title: "Fig. 8 — bytes/s public vs natted peers (Nylon)", Key: "nat%",
		Axis: natPcts(1, 99), Columns: columns(
			Column{"public", nylon(15), bytesPublic},
			Column{"natted", nylon(15), bytesNatted})},
	// Figure 9: the average RVP chain toward a natted destination, per view
	// size. At 0% there is nobody to punch toward.
	{ID: "9", Title: "Fig. 9 — average number of RVPs vs NAT%", Key: "nat%",
		Axis: natPcts(1, 100), Columns: perViewSize(nylon, chainLen)},
	// Figure 10: Nylon's biggest cluster after a mass departure. The paper
	// removes the peers after 500 shuffles and measures 1500 shuffles later;
	// the same 1:3 split is applied to the configured round budget.
	{ID: "10", Title: "Fig. 10 — biggest cluster (%) after massive churn", Key: "departed%",
		Axis: fixed(50, 60, 70, 75, 80), Columns: columns(
			Column{"40% NATs", departing(40, true), clusterPct},
			Column{"50% NATs", departing(50, true), clusterPct},
			Column{"60% NATs", departing(60, true), clusterPct},
			Column{"70% NATs", departing(70, true), clusterPct},
			Column{"80% NATs", departing(80, true), clusterPct})},
	// Ablation A1: public and natted load under Nylon and under §4's
	// fixed-public-RVP strawman.
	{ID: "a1", Title: "A1 — load balance: Nylon vs static public RVPs (bytes/s)", Key: "nat%",
		Axis: natPcts(1, 99), Columns: columns(
			Column{"nylon-public", nylon(15), bytesPublic},
			Column{"nylon-natted", nylon(15), bytesNatted},
			Column{"static-public", engine(ProtoStaticRVP, DefaultMix), bytesPublic},
			Column{"static-natted", engine(ProtoStaticRVP, DefaultMix), bytesNatted})},
	// Ablation A2: biggest cluster and stale references of Nylon and of an
	// ARRG-style reachable-peer cache under PRC NATs.
	{ID: "a2", Title: "A2 — Nylon vs ARRG cache: cluster% and stale%", Key: "nat%",
		Axis: natPcts(0, 100), Columns: columns(
			Column{"nylon-cluster", nylon(15), clusterPct},
			Column{"arrg-cluster", engine(ProtoARRG, prcOnly), clusterPct},
			Column{"nylon-stale", nylon(15), stalePct},
			Column{"arrg-stale", engine(ProtoARRG, prcOnly), stalePct})},
	// Ablation A3: Nylon at 80% NATs as the NAT rule lifetime varies; it
	// bounds how long relayed route TTLs stay valid.
	{ID: "a3", Title: "A3 — Nylon sensitivity to the hole timeout (80% NATs)", Key: "timeout_s",
		Axis: fixed(15, 30, 60, 90, 180), Columns: columns(
			Column{"cluster%", holeTimeout, clusterPct},
			Column{"stale%", holeTimeout, stalePct},
			Column{"completion%", holeTimeout, completionPct},
			Column{"chain", holeTimeout, chainLen})},
	// Ablation A4: push-only against push/pull propagation in the baseline.
	{ID: "a4", Title: "A4 — push vs push/pull baseline (PRC NATs): cluster% and sampling chi2/dof", Key: "nat%",
		Axis: natPcts(0, 100), Columns: columns(
			Column{"pushpull-cluster", baseline(15), clusterPct},
			Column{"push-cluster", generic(view.SelectRand, view.MergeHealer, false, 15), clusterPct},
			Column{"pushpull-chi2", baseline(15), chiSquare},
			Column{"push-chi2", generic(view.SelectRand, view.MergeHealer, false, 15), chiSquare})},
	// Ablation A5: recovery from 80% departures (60% NATs) without and with
	// no-reply eviction.
	{ID: "a5", Title: "A5 — no-reply eviction vs churn recovery (80% departures, 60% NATs)", Key: "evict",
		Axis: fixed(0, 1), Label: func(x int) string { return [...]string{"off", "on"}[x] },
		Columns: columns(
			Column{"cluster%", eviction, clusterPct},
			Column{"stale%", eviction, stalePct},
			Column{"completion%", eviction, completionPct})},
	// Ablation A6: the NAT-oblivious baseline at 80% PRC NATs as NAT-PMP /
	// UPnP deployment grows — the alternative the paper's related work
	// dismisses for coverage and security reasons.
	{ID: "a6", Title: "A6 — baseline rescue by UPnP deployment (80% PRC NATs)", Key: "upnp%",
		Axis: fixed(0, 25, 50, 75, 100), Columns: columns(
			Column{"cluster%", upnp, clusterPct},
			Column{"stale%", upnp, stalePct},
			Column{"natted-nonstale%", upnp, nattedPct},
			Column{"completion%", upnp, completionPct})},
}

// RunFigures reproduces figs at scale p in three phases. Plan: expand the
// figures into cells and the cells into the distinct points behind them —
// figures overlap (Fig. 4 plots the runs of Fig. 3; six figures share the
// view-15 Nylon column), so at the default scale the fourteen need 289 points
// standing alone and 189 together. Run: every (point, seed) executes once, in
// presentation order, in one sim.ForEach with no barrier between figures.
// Fill: emit receives each figure's tables, in order and on the caller's
// goroutine, as soon as that figure's points are done. Tables are identical
// for any p.Workers.
func RunFigures(figs []Figure, p Params, emit func(Figure, []Table)) error {
	p = p.defaults()
	pl := newPlan(figs, p)
	rs := startRuns(pl.points, p.Seeds, p.Workers)
	defer rs.stop()
	for i, f := range figs {
		var tables []Table
		for _, tp := range pl.tables[i] {
			for r, row := range tp.cells {
				for c, pt := range row {
					seeds, err := rs.wait(pt)
					if err != nil {
						return fmt.Errorf("figure %s: %w", f.ID, err)
					}
					// The metric of the mean, not the mean of the metric.
					tp.Rows[r].Values = append(tp.Rows[r].Values, tp.cols[c].Metric(meanResult(seeds)))
				}
			}
			tables = append(tables, tp.Table)
		}
		emit(f, tables)
	}
	return nil
}

// plan is what a set of figures needs run, and where each result goes.
type plan struct {
	// points are the distinct experiment points in first-use order, keyed
	// on Config.Defaults() so that spelling a default out (A3's 90 s row)
	// does not make a second point.
	points []Config
	tables [][]tablePlan // per figure
}

// tablePlan is one table with its labels set and its values still to fill.
type tablePlan struct {
	Table
	cols  []Column
	cells [][]int // [row][column] → index into plan.points
}

func newPlan(figs []Figure, p Params) *plan {
	pl := &plan{}
	index := make(map[Config]int)
	for _, f := range figs {
		parts := []Part{{Params: p}}
		if f.Split != nil {
			parts = f.Split(p)
		}
		var tables []tablePlan
		for _, part := range parts {
			tp := tablePlan{
				Table: Table{Title: f.Title + part.Suffix, Columns: []string{f.Key}},
				cols:  f.Columns(part.Params),
			}
			for _, c := range tp.cols {
				tp.Columns = append(tp.Columns, c.Name)
			}
			for _, x := range f.Axis(part.Params) {
				label := strconv.Itoa(x)
				if f.Label != nil {
					label = f.Label(x)
				}
				tp.Rows = append(tp.Rows, Row{Label: label})
				row := make([]int, len(tp.cols))
				for c, col := range tp.cols {
					point := col.Config(part.Params, x).Defaults()
					pt, planned := index[point]
					if !planned {
						pt = len(pl.points)
						index[point] = pt
						pl.points = append(pl.points, point)
					}
					row[c] = pt
				}
				tp.cells = append(tp.cells, row)
			}
			tables = append(tables, tp)
		}
		pl.tables = append(pl.tables, tables)
	}
	return pl
}

// runs is the run phase: every (point, seed) of a plan executing once, in
// plan order, on a fixed set of workers. Each peer draws from an
// independently derived RNG stream (see xrand.Mix in the runner), so which
// worker executes a run cannot influence its outcome.
type runs struct {
	points []pointRun
	halt   atomic.Bool
	done   chan struct{} // closed when every job has run or been skipped
}

type pointRun struct {
	done    sync.WaitGroup // one count per seed
	results []Result       // per seed, in seed order
	errs    []error
}

func startRuns(points []Config, seeds []int64, workers int) *runs {
	rs := &runs{points: make([]pointRun, len(points)), done: make(chan struct{})}
	for i := range rs.points {
		pr := &rs.points[i]
		pr.results, pr.errs = make([]Result, len(seeds)), make([]error, len(seeds))
		pr.done.Add(len(seeds))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	go func() {
		defer close(rs.done)
		sim.ForEach(len(points)*len(seeds), workers, func(job int) {
			pt, s := job/len(seeds), job%len(seeds)
			pr := &rs.points[pt]
			if !rs.halt.Load() {
				cfg := points[pt]
				cfg.Seed = seeds[s]
				cfg.Workers = 1 // the parallelism is across runs
				pr.results[s], pr.errs[s] = Run(cfg)
			}
			pr.done.Done()
		})
	}()
	return rs
}

// wait blocks until every seed of point pt has run and returns the per-seed
// results in seed order, or the first seed's error.
func (rs *runs) wait(pt int) ([]Result, error) {
	pr := &rs.points[pt]
	pr.done.Wait()
	for _, err := range pr.errs {
		if err != nil {
			return nil, err
		}
	}
	return pr.results, nil
}

// stop makes the workers skip what has not started and waits for them.
func (rs *runs) stop() {
	rs.halt.Store(true)
	<-rs.done
}

// --- row axes ---

// natPcts is the NAT-percentage axis of Params restricted to [lo, hi].
func natPcts(lo, hi int) func(Params) []int {
	return func(p Params) []int {
		var out []int
		for _, nat := range p.NATPcts {
			if lo <= nat && nat <= hi {
				out = append(out, nat)
			}
		}
		return out
	}
}

func fixed(xs ...int) func(Params) []int { return func(Params) []int { return xs } }

// --- columns and tables ---

func columns(cols ...Column) func(Params) []Column { return func(Params) []Column { return cols } }

// perViewSize is one curve per compared view size.
func perViewSize(point func(viewSize int) func(Params, int) Config, metric func(Result) float64) func(Params) []Column {
	return func(p Params) []Column {
		var cols []Column
		for _, vs := range p.ViewSizes {
			cols = append(cols, Column{fmt.Sprintf("view=%d", vs), point(vs), metric})
		}
		return cols
	}
}

// byViewSize splits a figure into one table per compared view size.
func byViewSize(p Params) []Part {
	var parts []Part
	for _, vs := range p.ViewSizes {
		part := Part{Suffix: fmt.Sprintf(", view size %d", vs), Params: p}
		part.Params.ViewSizes = []int{vs}
		parts = append(parts, part)
	}
	return parts
}

// fig2Columns is the six baseline configurations of Fig. 2 at the view size
// of the table byViewSize is generating.
func fig2Columns(p Params) []Column {
	var cols []Column
	for _, sel := range []view.Selection{view.SelectRand, view.SelectTail} {
		for _, mrg := range []view.Merge{view.MergeHealer, view.MergeBlind, view.MergeSwapper} {
			cols = append(cols, Column{sel.String() + "/" + mrg.String(), generic(sel, mrg, true, p.ViewSizes[0]), clusterPct})
		}
	}
	return cols
}

// --- experiment points ---

// prcOnly is the NAT mix of the paper's Section 3 experiments ("for the sake
// of simplicity, only PRC NATs are considered").
var prcOnly = NATMix{PRC: 1.0}

// generic is the NAT-oblivious protocol of §3 at nat% PRC NATs.
func generic(sel view.Selection, mrg view.Merge, pushPull bool, viewSize int) func(Params, int) Config {
	return func(p Params, nat int) Config {
		return Config{
			N: p.N, Rounds: p.Rounds, ViewSize: viewSize,
			NATRatio: float64(nat) / 100, Mix: prcOnly,
			Protocol: ProtoGeneric, Selection: sel, Merge: mrg, PushPull: pushPull,
		}
	}
}

// baseline is the (push/pull, rand, healer) configuration the paper singles
// out as its reference.
func baseline(viewSize int) func(Params, int) Config {
	return generic(view.SelectRand, view.MergeHealer, true, viewSize)
}

func nylonCfg(p Params, natPct, viewSize int) Config {
	return Config{
		N: p.N, Rounds: p.Rounds, ViewSize: viewSize,
		NATRatio: float64(natPct) / 100, Mix: DefaultMix,
		Protocol: ProtoNylon, Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		// Deployable peer samplers evict unanswered targets (Jelasity et
		// al.'s reference implementation does); the paper's churn
		// results are only reachable with it. Ablation A5 isolates the
		// effect.
		EvictUnanswered: true,
	}
}

// nylon is Nylon at nat% NATs of the paper's mix.
func nylon(viewSize int) func(Params, int) Config {
	return func(p Params, nat int) Config { return nylonCfg(p, nat, viewSize) }
}

// engine is the nylon(15) point with another protocol, and NAT mix, under test.
func engine(proto Protocol, mix NATMix) func(Params, int) Config {
	return func(p Params, nat int) Config {
		c := nylonCfg(p, nat, 15)
		c.Protocol, c.Mix = proto, mix
		return c
	}
}

// departing is Nylon at nat% NATs losing departed% of its peers a quarter of
// the way into the run.
func departing(nat int, evict bool) func(Params, int) Config {
	return func(p Params, departed int) Config {
		c := nylonCfg(p, nat, 15)
		c.EvictUnanswered = evict
		c.ChurnAtRound = p.Rounds / 4
		c.ChurnFraction = float64(departed) / 100
		return c
	}
}

func eviction(p Params, on int) Config { return departing(60, on == 1)(p, 80) }

func holeTimeout(p Params, seconds int) Config {
	c := nylonCfg(p, 80, 15)
	c.HoleTimeoutMs = int64(seconds) * 1000
	return c
}

func upnp(p Params, pct int) Config {
	c := baseline(15)(p, 80)
	c.UPnPFraction = float64(pct) / 100
	return c
}

// --- plotted metrics, each applied to the seed mean of a point ---

func clusterPct(r Result) float64    { return r.BiggestCluster * 100 }
func stalePct(r Result) float64      { return r.StaleFraction * 100 }
func nattedPct(r Result) float64     { return r.NattedNonStale * 100 }
func completionPct(r Result) float64 { return r.CompletionRate * 100 }
func chiSquare(r Result) float64     { return r.ChiSquareStat }
func chainLen(r Result) float64      { return r.AvgChainLen }
func bytesAll(r Result) float64      { return r.BytesPerSecAll }
func bytesPublic(r Result) float64   { return r.BytesPerSecPublic }
func bytesNatted(r Result) float64   { return r.BytesPerSecNatted }
