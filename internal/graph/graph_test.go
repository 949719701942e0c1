package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func ids(ns ...uint64) []ident.NodeID {
	out := make([]ident.NodeID, len(ns))
	for i, n := range ns {
		out[i] = ident.NodeID(n)
	}
	return out
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(ids(1, 2, 3, 4, 5))
	if u.Components() != 5 {
		t.Fatalf("Components = %d, want 5", u.Components())
	}
	u.Union(1, 2)
	u.Union(2, 3)
	if u.Components() != 3 {
		t.Errorf("Components = %d, want 3", u.Components())
	}
	if u.Find(1) != u.Find(3) {
		t.Error("1 and 3 not merged")
	}
	if u.Find(1) == u.Find(4) {
		t.Error("1 and 4 spuriously merged")
	}
	if got := u.LargestComponent(); got != 3 {
		t.Errorf("LargestComponent = %d, want 3", got)
	}
	// Union of already-joined nodes is a no-op.
	u.Union(1, 3)
	if u.Components() != 3 {
		t.Error("redundant union changed component count")
	}
	// Unknown nodes are ignored.
	u.Union(1, 99)
	u.Union(99, 1)
	if u.Components() != 3 {
		t.Error("union with unknown node changed components")
	}
	if u.Find(99) != 99 {
		t.Error("Find of unknown node not identity")
	}
}

func TestBiggestClusterFraction(t *testing.T) {
	nodes := ids(1, 2, 3, 4, 5, 6)
	edges := []Edge{{1, 2}, {2, 3}, {4, 5}}
	got := BiggestClusterFraction(nodes, edges)
	if got != 0.5 {
		t.Errorf("fraction = %v, want 0.5", got)
	}
	if BiggestClusterFraction(nil, nil) != 0 {
		t.Error("empty node set should yield 0")
	}
	// Fully connected ring.
	ring := []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 1}}
	if BiggestClusterFraction(nodes, ring) != 1 {
		t.Error("ring not fully connected")
	}
	// Edges to nodes outside the set are ignored.
	if got := BiggestClusterFraction(ids(1, 2), []Edge{{1, 9}, {9, 2}}); got != 0.5 {
		t.Errorf("external edges merged components: %v", got)
	}
}

func TestInDegrees(t *testing.T) {
	nodes := ids(1, 2, 3)
	edges := []Edge{{1, 2}, {3, 2}, {2, 1}, {1, 9}}
	deg := InDegrees(nodes, edges)
	if deg[2] != 2 || deg[1] != 1 || deg[3] != 0 {
		t.Errorf("InDegrees = %v", deg)
	}
	if _, ok := deg[9]; ok {
		t.Error("degree recorded for external node")
	}
}

func TestSummarize(t *testing.T) {
	deg := map[ident.NodeID]int{1: 2, 2: 4, 3: 4, 4: 6}
	s := Summarize(deg)
	if s.Mean != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.StdDev < 1.41 || s.StdDev > 1.42 {
		t.Errorf("StdDev = %v, want ~1.414", s.StdDev)
	}
	if s.P50 != 4 {
		t.Errorf("P50 = %d, want 4", s.P50)
	}
	if got := Summarize(nil); got != (DegreeSummary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", got)
	}
}

// TestUnionFindMatchesBFS cross-checks union-find component sizes against a
// simple BFS on random graphs.
func TestUnionFindMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		nodes := make([]ident.NodeID, n)
		for i := range nodes {
			nodes[i] = ident.NodeID(i + 1)
		}
		var edges []Edge
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				edges = append(edges, Edge{
					From: nodes[rng.Intn(n)],
					To:   nodes[rng.Intn(n)],
				})
			}
		}
		got := BiggestClusterFraction(nodes, edges)

		// BFS reference.
		adj := make(map[ident.NodeID][]ident.NodeID)
		for _, e := range edges {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
		seen := make(map[ident.NodeID]bool)
		best := 0
		for _, start := range nodes {
			if seen[start] {
				continue
			}
			size := 0
			queue := []ident.NodeID{start}
			seen[start] = true
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				size++
				for _, nb := range adj[cur] {
					if !seen[nb] {
						seen[nb] = true
						queue = append(queue, nb)
					}
				}
			}
			if size > best {
				best = size
			}
		}
		want := float64(best) / float64(n)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDenseMatchesOracle compares Dense against the map-keyed oracle on random
// graphs with everything the overlay produces and a few things it should not:
// dead nodes (slots outside the node set), self-loops, duplicate edges, edges
// from and to dead nodes, endpoints outside 1..n, a duplicated node, and an
// empty node set — through one Dense reused across shrinking and growing n.
func TestDenseMatchesOracle(t *testing.T) {
	var g Dense
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		var nodes []ident.NodeID
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.8 {
				nodes = append(nodes, ident.NodeID(i+1))
			}
		}
		if len(nodes) > 0 && rng.Intn(4) == 0 {
			nodes = append(nodes, nodes[rng.Intn(len(nodes))])
		}
		var edges []Edge
		for i, m := 0, rng.Intn(3*n); i < m; i++ {
			// IDs 0 and n+1..n+2 are unknown endpoints.
			e := Edge{From: ident.NodeID(rng.Intn(n + 3)), To: ident.NodeID(rng.Intn(n + 3))}
			edges = append(edges, e)
			if rng.Intn(5) == 0 {
				edges = append(edges, e, Edge{From: e.From, To: e.From})
			}
		}
		if got, want := g.BiggestClusterFraction(n, nodes, edges), BiggestClusterFraction(nodes, edges); got != want {
			t.Logf("seed %d: biggest cluster %v, oracle %v", seed, got, want)
			return false
		}
		if got, want := g.InDegree(n, nodes, edges), Summarize(InDegrees(nodes, edges)); got != want {
			t.Logf("seed %d: in-degree %+v, oracle %+v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDenseSteadyStateAllocs pins the point of the scratch: a sample over a
// population no larger than one already seen allocates nothing.
func TestDenseSteadyStateAllocs(t *testing.T) {
	nodes := ids(1, 2, 3, 5, 6)
	edges := []Edge{{1, 2}, {2, 3}, {5, 6}, {6, 4}, {4, 1}}
	var g Dense
	g.BiggestClusterFraction(6, nodes, edges)
	g.InDegree(6, nodes, edges)
	if n := testing.AllocsPerRun(100, func() {
		g.BiggestClusterFraction(6, nodes, edges)
		g.InDegree(6, nodes, edges)
	}); n != 0 {
		t.Errorf("warm Dense allocates %v times per sample", n)
	}
}
