package simnet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestJitHeapZeroAllocs locks in the arena property of the link-delay heap:
// once the backing slice has grown to its working size, staging and firing
// jittered deliveries allocates nothing. A regression here would put an
// allocation on every jittered datagram of a lossy-link run.
func TestJitHeapZeroAllocs(t *testing.T) {
	var h jitHeap
	// Warm the slice to its steady-state capacity.
	for i := 0; i < 256; i++ {
		h.push(jitEntry{Key: sim.Key{At: int64(i % 31), Seq: uint64(i)}})
	}
	for len(h) > 0 {
		h.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.push(jitEntry{Key: sim.Key{At: 3, Seq: 1}})
		h.push(jitEntry{Key: sim.Key{At: 1, Seq: 2}})
		h.push(jitEntry{Key: sim.Key{At: 2, Seq: 3}})
		h.pop()
		h.pop()
		h.pop()
	})
	if allocs != 0 {
		t.Errorf("jit heap push+pop allocates %.1f times per round, want 0", allocs)
	}
}

// TestJitHeapOrdering pops a large randomized batch and checks the heap
// yields entries in exactly the scheduler's event order (at, actor, seq) —
// the property that lets jittered deliveries share one reused callback.
func TestJitHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 4000
	var h jitHeap
	want := make([]sim.Key, 0, n)
	for i := 0; i < n; i++ {
		k := sim.Key{
			At:    int64(rng.Intn(53)), // dense: plenty of equal-time ties
			Actor: uint64(rng.Intn(7)),
			Seq:   uint64(i),
		}
		want = append(want, k)
		h.push(jitEntry{Key: k})
	}
	slices.SortFunc(want, sim.Key.Compare)
	for i := range want {
		if got := h.pop().Key; got != want[i] {
			t.Fatalf("pop %d: got %+v, want %+v", i, got, want[i])
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not empty after draining: %d left", len(h))
	}
}
