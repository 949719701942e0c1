package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestAtStepZeroAllocs locks in the inline-event heap: once the heap slice
// has grown to its working size, scheduling and executing events allocates
// nothing (the callback must itself be a reused func value, as on the
// simulator's hot paths).
func TestAtStepZeroAllocs(t *testing.T) {
	var s Scheduler
	n := 0
	fn := func() { n++ }
	// Warm the heap slice to its steady-state capacity.
	for i := 0; i < 256; i++ {
		s.At(s.Now()+int64(i%16), fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+3, fn)
		s.At(s.Now()+1, fn)
		s.At(s.Now()+2, fn)
		s.Step()
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("At+Step allocates %.1f times per round, want 0", allocs)
	}
}

// TestHeapOrderingMatchesSort schedules a large batch of events with random
// times (including many collisions) and checks that execution order equals a
// stable sort by (time, scheduling order).
func TestHeapOrderingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5000
	type rec struct {
		at  int64
		seq int
	}
	want := make([]rec, n)
	var s Scheduler
	var got []rec
	for i := 0; i < n; i++ {
		at := int64(rng.Intn(97)) // dense: plenty of equal-time ties
		want[i] = rec{at, i}
		r := rec{at, i}
		s.At(at, func() { got = append(got, r) })
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
	s.RunUntil(1000)
	if len(got) != n {
		t.Fatalf("executed %d events, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRingZeroAllocs locks in the inflight ring's arena property: once the
// buffer has grown to its working size, Push/Peek/Pop cycles allocate
// nothing, including across wrap-around. The sharded network stages every
// same-tick delivery through one of these.
func TestRingZeroAllocs(t *testing.T) {
	var q Ring[[3]uint64]
	for i := 0; i < 128; i++ {
		q.Push([3]uint64{uint64(i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 100; i++ { // > capacity/3 per run: exercises wrap
			q.Push([3]uint64{uint64(i)})
			_ = q.Peek()
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("Ring push+peek+pop allocates %.1f times per round, want 0", allocs)
	}
}
