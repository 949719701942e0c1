package graph

import "repro/internal/ident"

// The map-keyed implementation Dense replaced, kept as the oracle the tests
// compare it against: nothing here assumes dense IDs.

// UnionFind is a disjoint-set forest with union by rank and path halving.
type UnionFind struct {
	parent map[ident.NodeID]ident.NodeID
	rank   map[ident.NodeID]int
	comps  int
}

// NewUnionFind creates a structure over the given nodes, each initially its
// own component.
func NewUnionFind(nodes []ident.NodeID) *UnionFind {
	u := &UnionFind{
		parent: make(map[ident.NodeID]ident.NodeID, len(nodes)),
		rank:   make(map[ident.NodeID]int, len(nodes)),
		comps:  len(nodes),
	}
	for _, n := range nodes {
		u.parent[n] = n
	}
	return u
}

// Find returns the representative of n's component. Unknown nodes return n
// itself.
func (u *UnionFind) Find(n ident.NodeID) ident.NodeID {
	p, ok := u.parent[n]
	if !ok {
		return n
	}
	for p != n {
		gp := u.parent[p]
		u.parent[n] = gp // path halving
		n, p = gp, u.parent[gp]
	}
	return n
}

// Union merges the components of a and b; unknown nodes are ignored.
func (u *UnionFind) Union(a, b ident.NodeID) {
	if _, ok := u.parent[a]; !ok {
		return
	}
	if _, ok := u.parent[b]; !ok {
		return
	}
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.comps--
}

// Components returns the number of components.
func (u *UnionFind) Components() int { return u.comps }

// LargestComponent returns the size of the biggest component.
func (u *UnionFind) LargestComponent() int {
	sizes := make(map[ident.NodeID]int)
	best := 0
	for n := range u.parent {
		r := u.Find(n)
		sizes[r]++
		if sizes[r] > best {
			best = sizes[r]
		}
	}
	return best
}

// BiggestClusterFraction treats the directed edges as undirected, restricted
// to the given node set, and returns the fraction (0..1) of nodes in the
// largest weakly-connected component. An empty node set yields 0.
func BiggestClusterFraction(nodes []ident.NodeID, edges []Edge) float64 {
	if len(nodes) == 0 {
		return 0
	}
	u := NewUnionFind(nodes)
	for _, e := range edges {
		u.Union(e.From, e.To)
	}
	return float64(u.LargestComponent()) / float64(len(nodes))
}

// InDegrees counts, for every node in nodes, how many of the given edges
// point at it. Nodes without incoming edges report zero.
func InDegrees(nodes []ident.NodeID, edges []Edge) map[ident.NodeID]int {
	deg := make(map[ident.NodeID]int, len(nodes))
	for _, n := range nodes {
		deg[n] = 0
	}
	for _, e := range edges {
		if _, ok := deg[e.To]; ok {
			deg[e.To]++
		}
	}
	return deg
}

// Summarize computes summary statistics over the in-degree map. It returns
// the zero summary for an empty map.
func Summarize(deg map[ident.NodeID]int) DegreeSummary {
	vals := make([]int, 0, len(deg))
	for _, d := range deg {
		vals = append(vals, d)
	}
	return summarize(vals)
}
