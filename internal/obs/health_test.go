package obs

import (
	"sync"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
)

func desc(id int) view.Descriptor {
	return view.Descriptor{ID: ident.NodeID(id)}
}

func TestHealthTallies(t *testing.T) {
	h := NewHealth(2, 4)
	for id := 1; id <= 4; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	o0, o1 := h.Observer(0), h.Observer(1)

	// Peer 1 (shard 0) views {2, 3}; peer 2 (shard 1) views {3}.
	o0.ViewEntryAdded(1, desc(2))
	o0.ViewEntryAdded(1, desc(3))
	o1.ViewEntryAdded(2, desc(3))

	s0, s1 := h.shards[0].entries.Load(), h.shards[1].entries.Load()
	if h.Entries() != 3 || s0 != 2 || s1 != 1 {
		t.Fatalf("entries = %d (shards %d, %d), want 3 (2, 1)", h.Entries(), s0, s1)
	}
	if h.Indegree(3) != 2 || h.Indegree(2) != 1 || h.Indegree(4) != 0 {
		t.Fatalf("indegrees = %d,%d,%d, want 2,1,0", h.Indegree(3), h.Indegree(2), h.Indegree(4))
	}
	maxDeg, isolated := h.IndegreeStats()
	if maxDeg != 2 || isolated != 2 { // peers 1 and 4 unreferenced
		t.Fatalf("IndegreeStats = (%d, %d), want (2, 2)", maxDeg, isolated)
	}

	// Kill peer 3 (its own view holds 1 entry): its indegree moves to the
	// dead-reference total, its view freezes into DeadEntries.
	o1.ViewEntryAdded(3, desc(1))
	h.Kill(3, 1)
	if h.Alive() != 3 || h.Total() != 4 {
		t.Fatalf("alive/total = %d/%d, want 3/4", h.Alive(), h.Total())
	}
	if h.DeadRefs() != 2 {
		t.Fatalf("DeadRefs = %d, want 2", h.DeadRefs())
	}
	if h.DeadEntries() != 1 || h.AliveEntries() != 3 {
		t.Fatalf("DeadEntries/AliveEntries = %d/%d, want 1/3", h.DeadEntries(), h.AliveEntries())
	}

	// Referencing a dead peer counts immediately; dropping the reference
	// uncounts it.
	o0.ViewEntryAdded(4, desc(3))
	if h.DeadRefs() != 3 {
		t.Fatalf("DeadRefs after add = %d, want 3", h.DeadRefs())
	}
	o0.ViewEntryRemoved(1, desc(3))
	if h.DeadRefs() != 2 {
		t.Fatalf("DeadRefs after remove = %d, want 2", h.DeadRefs())
	}

	// Killing twice (or an unknown ID) is a no-op.
	h.Kill(3, 99)
	h.Kill(0, 1)
	if h.Alive() != 3 || h.DeadEntries() != 1 {
		t.Fatalf("double-kill changed state: alive %d, deadEntries %d", h.Alive(), h.DeadEntries())
	}
}

func TestHealthGrowsPastCapacity(t *testing.T) {
	h := NewHealth(1, 2)
	for id := 1; id <= 40; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	o := h.Observer(0)
	o.ViewEntryAdded(1, desc(40))
	if h.Indegree(40) != 1 {
		t.Fatalf("Indegree(40) = %d after growth, want 1", h.Indegree(40))
	}
	if h.Total() != 40 {
		t.Fatalf("Total = %d, want 40", h.Total())
	}
}

// TestHealthConcurrentHooks hammers the hooks from parallel goroutines (one
// per shard, as the kernel would) so the race detector can vet the
// accumulators' synchronization story.
func TestHealthConcurrentHooks(t *testing.T) {
	const shards, peers, rounds = 4, 64, 500
	h := NewHealth(shards, peers)
	for id := 1; id <= peers; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := h.Observer(s)
			for i := 0; i < rounds; i++ {
				target := desc(1 + (s*rounds+i)%peers)
				o.ViewEntryAdded(ident.NodeID(s+1), target)
				o.ViewEntryRemoved(ident.NodeID(s+1), target)
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Concurrent scrape, as the HTTP handler would.
		for i := 0; i < 100; i++ {
			_ = h.Entries()
			_ = h.DeadRefs()
			h.IndegreeStats()
		}
	}()
	wg.Wait()
	<-done
	if h.Entries() != 0 {
		t.Fatalf("Entries = %d after balanced add/remove, want 0", h.Entries())
	}
	if maxDeg, _ := h.IndegreeStats(); maxDeg != 0 {
		t.Fatalf("max indegree = %d after balanced add/remove, want 0", maxDeg)
	}
}

// TestHookAllocs pins the view-mutation hooks at zero allocations.
func TestHookAllocs(t *testing.T) {
	h := NewHealth(2, 16)
	for id := 1; id <= 16; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	o := h.Observer(1)
	d := desc(7)
	if n := testing.AllocsPerRun(1000, func() {
		o.ViewEntryAdded(1, d)
		o.ViewEntryRemoved(1, d)
	}); n != 0 {
		t.Errorf("hooks allocate %v per add/remove pair, want 0", n)
	}
}
