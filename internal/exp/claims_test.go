package exp

import (
	"math"
	"slices"
	"testing"
)

// cell is one value of an exp.Figures table: figure ID, column name, row
// label. It reads the point the column's own Config builds through the
// column's Metric, or through metric when set: A2 plots neither completion
// nor natted share, and its ARRG claim needs both.
type cell struct {
	fig, col, row string
	metric        func(Result) float64
}

func at(fig, col, row string) cell { return cell{fig: fig, col: col, row: row} }

// claim is one claim of the paper, stated once: cell cmp bound, or cell cmp
// bound × against when against names a cell. holds is the verdict the claim
// has at its scale (250 peers × rounds, seed 42); false marks an
// expected-false row, which ROADMAP item 3 runs to ground. A row fails when
// its verdict differs from holds, in either direction.
type claim struct {
	name, source string // source: the paper's section and claim
	rounds       int
	cell         cell
	cmp          string // "<", "<=", ">=" or ">"
	bound        float64
	against      cell
	holds        bool
}

var claims = []claim{
	{"c-connected-80", "§5 Correctness: no partition under NATs", 90, at("c", "cluster%", "80"), ">=", 99, cell{}, true},
	{"c-fresh-80", "§5 Correctness: no stale references", 90, at("c", "stale%", "80"), "<=", 15, cell{}, true},
	{"c-natted-share-80", "§5 Correctness: natted peers are sampled near their share", 90, at("c", "natted-nonstale%", "80"), ">=", 60, cell{}, true},
	{"c-completion-80", "§5 Correctness: shuffles toward natted peers complete", 90, at("c", "completion%", "80"), ">=", 85, cell{}, true},
	{"c-connected-100", "§5 Correctness: no partition with every peer natted", 90, at("c", "cluster%", "100"), ">=", 90, cell{}, true},
	{"c-random-80", "§5 Correctness: sampling as random as NAT-free", 90, at("c", "chi2/dof", "80"), "<=", 2, at("a4", "pushpull-chi2", "0"), true},
	{"9-chain-80", "§5 Fig. 9: average chain below 4 RVPs", 90, at("9", "view=15", "80"), "<", 4, cell{}, true},
	{"8-balance-80", "§5 Fig. 8: public and natted loads within 10–20%", 90, at("8", "public", "80"), "<=", 1.2, at("8", "natted", "80"), true},
	{"10-connected-50", "§5 Fig. 10: no partition after massive departures", 120, at("10", "60% NATs", "50"), ">=", 95, cell{}, true},
	{"2-partitions-100", "§3 Fig. 2: NAT-oblivious overlays partition toward 100% NATs", 200, at("2", "rand/healer", "100"), "<=", 50, cell{}, true},
	{"3-stale-80", "§3 Fig. 3: the baseline's stale references grow with NAT%", 90, at("3", "view=15", "80"), ">=", 20, cell{}, true},
	{"4-natted-share-80", "§3 Fig. 4: natted peers are under-represented among usable references", 90, at("4", "view=15", "80"), "<=", 30, cell{}, true},
	{"a6-baseline-completion-80", "§3: the baseline's shuffles fail under NATs", 90, at("a6", "completion%", "0"), "<=", 80, cell{}, true},
	{"a4-baseline-random-80", "§3: the baseline's sample stream is far from random under NATs", 90, at("a4", "pushpull-chi2", "80"), ">=", 2, at("c", "chi2/dof", "80"), true},
	{"a2-arrg-completion-90", "§1: a reachable-peer cache completes more shuffles than the baseline", 90, cell{"a2", "arrg-cluster", "90", completionPct}, ">", 1, cell{"3", "view=15", "90", completionPct}, true},
	{"a2-arrg-natted-90", `§1: a cache "cannot ensure that the network will remain connected"`, 90, cell{"a2", "arrg-stale", "90", nattedPct}, "<", 1, at("c", "natted-nonstale%", "90"), true},
	{"a1-static-imbalance-80", "§4: fixed public RVPs carry the relaying load", 90, at("a1", "static-public", "80"), ">=", 1.5, at("a1", "static-natted", "80"), true},
	{"7-bytes-80", "§5 Fig. 7: Nylon stays below 350 B/s per peer", 90, at("7", "nylon", "80"), "<", 350, cell{}, true},
	{"a3-timeout-completion", "ablation: a shorter hole timeout costs completion", 90, at("a3", "completion%", "15"), "<", 1, at("a3", "completion%", "90"), true},
	{"a5-eviction-recovers", "ablation: churn recovery needs no-reply eviction", 90, at("a5", "cluster%", "on"), ">", 1, at("a5", "cluster%", "off"), true},
	{"a6-upnp-rescues", "§6: full UPnP deployment rescues the baseline", 90, at("a6", "stale%", "100"), "<", 1, at("a6", "stale%", "0"), true},
	{"a4-push-cluster-100", `§3: push "consistently exhibits significantly worse performances"`, 90, at("a4", "push-cluster", "100"), "<", 1, at("a4", "pushpull-cluster", "100"), false},
	{"a4-push-chi2-0", `§3: push "consistently exhibits significantly worse performances"`, 90, at("a4", "push-chi2", "0"), ">", 1, at("a4", "pushpull-chi2", "0"), false},
}

// TestPaperClaims checks every row of the registry and logs the verdict
// table.
func TestPaperClaims(t *testing.T) { checkClaims(t) }

// The tests below check the claims the paper's headline results rest on,
// each through its registry rows; the rows hold the cells and thresholds.

func TestNylonPreservesSamplingUnderNATs(t *testing.T) {
	checkClaims(t, "c-connected-80", "c-fresh-80", "c-natted-share-80", "c-completion-80", "9-chain-80")
}

func TestBaselineDegradesUnderNATs(t *testing.T) {
	checkClaims(t, "3-stale-80", "4-natted-share-80", "a6-baseline-completion-80")
}

func TestBaselinePartitionsAtFullNAT(t *testing.T) {
	checkClaims(t, "2-partitions-100", "c-connected-100")
}

func TestNylonChurnResilience(t *testing.T) { checkClaims(t, "10-connected-50") }

func TestNylonRandomnessComparableToNATFree(t *testing.T) {
	checkClaims(t, "c-random-80", "a4-baseline-random-80")
}

func TestARRGBetterThanGenericWorseThanNylon(t *testing.T) {
	checkClaims(t, "a2-arrg-completion-90", "a2-arrg-natted-90")
}

func TestStaticRVPLoadImbalance(t *testing.T) {
	checkClaims(t, "a1-static-imbalance-80", "8-balance-80")
}

// checkClaims checks the named rows of the registry, or every row when
// none is named. It resolves each cell through its figure's plan, runs each
// distinct Config.Defaults() point once through the figure runner's run
// phase, and reports each row's value, threshold and verdict. A row fails
// outright when a cell it reads is NaN, when the cell it multiplies is ≤ 0,
// or when a value under a constant upper bound is ≤ 0: each is a run that
// measured nothing, which the comparison alone would let through.
func checkClaims(t *testing.T, names ...string) {
	t.Helper()
	rows := claims
	if len(names) > 0 {
		rows = nil
		for _, name := range names {
			i := slices.IndexFunc(claims, func(c claim) bool { return c.name == name })
			if i < 0 {
				t.Fatalf("no claim row %q", name)
			}
			rows = append(rows, claims[i])
		}
	}
	index := make(map[Config]int)
	var points []Config
	resolve := func(rounds int, c cell) (int, func(Result) float64) {
		for _, f := range Figures {
			if f.ID != c.fig {
				continue
			}
			pl := newPlan([]Figure{f}, Params{N: 250, Rounds: rounds}.defaults())
			for _, tp := range pl.tables[0] {
				for r, row := range tp.Rows {
					for i, col := range tp.cols {
						if row.Label != c.row || col.Name != c.col {
							continue
						}
						point, metric := pl.points[tp.cells[r][i]], col.Metric
						if c.metric != nil {
							metric = c.metric
						}
						pt, planned := index[point]
						if !planned {
							pt, index[point] = len(points), len(points)
							points = append(points, point)
						}
						return pt, metric
					}
				}
			}
		}
		t.Fatalf("no figure cell %s/%s/%s", c.fig, c.col, c.row)
		return 0, nil
	}
	for _, c := range rows {
		resolve(c.rounds, c.cell)
		if c.against.fig != "" {
			resolve(c.rounds, c.against)
		}
	}
	rs := startRuns(points, []int64{42}, 0)
	defer rs.stop()
	value := func(rounds int, c cell) float64 {
		pt, metric := resolve(rounds, c)
		results, err := rs.wait(pt)
		if err != nil {
			t.Fatal(err)
		}
		return metric(meanResult(results))
	}
	for _, c := range rows {
		v, ref := value(c.rounds, c.cell), 1.0
		if c.against.fig != "" {
			ref = value(c.rounds, c.against)
		}
		limit := c.bound * ref
		verdict, known := map[string]bool{"<": v < limit, "<=": v <= limit, ">=": v >= limit, ">": v > limit}[c.cmp]
		measured := !math.IsNaN(v) && ref > 0 && (v > 0 || c.against.fig != "" || c.cmp[0] != '<')
		t.Logf("%-26s %10.4g %-2s %10.4g  %-5v (expected %v)", c.name, v, c.cmp, limit, verdict, c.holds)
		if !known || !measured || verdict != c.holds {
			t.Errorf("%s (%s): %.4g %s %.4g is %v, expected %v (measured: %v)", c.name, c.source, v, c.cmp, limit, verdict, c.holds, measured)
		}
	}
}
