// Package graph computes the overlay-graph metrics of the paper's
// evaluation: the size of the biggest cluster (largest weakly-connected
// component of the usable view edges — Figures 2 and 10) and in-degree
// statistics used by the randomness analysis.
//
// The simulator numbers its peers densely — NodeID i+1 lives in slot i — so
// the maths runs over flat arrays indexed by slot, held in a Dense that a run
// reuses from sample to sample. The textbook map-keyed versions survive only
// as the oracle this package's tests compare Dense against.
package graph

import (
	"math"
	"sort"

	"repro/internal/ident"
)

// Edge is one directed view edge.
type Edge struct {
	From, To ident.NodeID
}

// DegreeSummary condenses a degree distribution.
type DegreeSummary struct {
	Mean float64
	// StdDev is the population standard deviation.
	StdDev float64
	// P50 and P99 are percentiles of the distribution.
	P50, P99 int
}

// Dense is the reusable scratch of the overlay metrics over a population of
// n slots, slot i holding the node with ID i+1. Each method takes the node
// set (the alive peers; every ID within 1..n) and the edge list, and ignores
// edges with an endpoint outside the node set, exactly as a map keyed by the
// node set would. The zero Dense is ready to use; it grows to the largest n it
// has seen and allocates nothing afterwards. Not safe for concurrent use.
type Dense struct {
	// mark holds one int32 per slot: -1 outside the node set, otherwise the
	// slot's union-find parent (BiggestClusterFraction) or its in-degree
	// (InDegree).
	mark []int32
	size []int32 // component size, valid at union-find roots
	vals []int   // in-degrees of the node set, for sorting
}

// reset sizes the scratch for n slots and marks every slot as outside the
// node set.
func (g *Dense) reset(n int) {
	if cap(g.mark) < n {
		g.mark = make([]int32, n)
		g.size = make([]int32, n)
	}
	g.mark = g.mark[:n]
	for i := range g.mark {
		g.mark[i] = -1
	}
}

// slot returns the slot of id if it is in the node set, or -1.
func (g *Dense) slot(id ident.NodeID) int32 {
	if id < 1 || uint64(id) > uint64(len(g.mark)) || g.mark[id-1] < 0 {
		return -1
	}
	return int32(id - 1)
}

// root returns the representative of s's component, halving the path.
func (g *Dense) root(s int32) int32 {
	p := g.mark
	for p[s] != s {
		p[s] = p[p[s]]
		s = p[s]
	}
	return s
}

// BiggestClusterFraction treats the directed edges as undirected, restricted
// to the given node set, and returns the fraction (0..1) of nodes in the
// largest weakly-connected component. An empty node set yields 0.
func (g *Dense) BiggestClusterFraction(n int, nodes []ident.NodeID, edges []Edge) float64 {
	if len(nodes) == 0 {
		return 0
	}
	g.reset(n)
	size := g.size[:n]
	for _, id := range nodes {
		g.mark[id-1], size[id-1] = int32(id-1), 1
	}
	best := int32(1)
	for _, e := range edges {
		a, b := g.slot(e.From), g.slot(e.To)
		if a < 0 || b < 0 {
			continue
		}
		if a, b = g.root(a), g.root(b); a == b {
			continue
		}
		if size[a] < size[b] {
			a, b = b, a
		}
		g.mark[b] = a
		size[a] += size[b]
		best = max(best, size[a])
	}
	return float64(best) / float64(len(nodes))
}

// InDegree summarizes, over the nodes of the set, how many of the given edges
// point at each; nodes without incoming edges count as zero. It returns the
// zero summary for an empty node set.
func (g *Dense) InDegree(n int, nodes []ident.NodeID, edges []Edge) DegreeSummary {
	g.reset(n)
	for _, id := range nodes {
		g.mark[id-1] = 0
	}
	for _, e := range edges {
		if s := g.slot(e.To); s >= 0 {
			g.mark[s]++
		}
	}
	g.vals = g.vals[:0]
	for _, d := range g.mark {
		if d >= 0 {
			g.vals = append(g.vals, int(d))
		}
	}
	return summarize(g.vals)
}

// summarize computes summary statistics over a degree distribution, sorting
// vals in place. It returns the zero summary for an empty one.
func summarize(vals []int) DegreeSummary {
	if len(vals) == 0 {
		return DegreeSummary{}
	}
	sort.Ints(vals)
	sum := 0
	for _, v := range vals {
		sum += v
	}
	mean := float64(sum) / float64(len(vals))
	var sq float64
	for _, v := range vals {
		dv := float64(v) - mean
		sq += dv * dv
	}
	pct := func(p float64) int {
		i := int(p * float64(len(vals)-1))
		return vals[i]
	}
	return DegreeSummary{
		Mean:   mean,
		StdDev: math.Sqrt(sq / float64(len(vals))),
		P50:    pct(0.50),
		P99:    pct(0.99),
	}
}
