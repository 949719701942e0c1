package sim

import (
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
)

// TestAtKeyOrderingMatchesSort schedules keyed events with colliding times
// and checks execution order equals a sort by (time, actor, seq) — the
// worker- and shard-count-invariant total order of the sharded kernel.
func TestAtKeyOrderingMatchesSort(t *testing.T) {
	type rec struct {
		at         int64
		actor, seq uint64
	}
	var s Scheduler
	var got []rec
	var want []rec
	// Insertion order deliberately scrambles actors and times.
	seqs := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		at := int64((i * 7919) % 23) // dense time collisions
		actor := uint64((i*31)%11 + 1)
		seqs[actor]++
		r := rec{at, actor, seqs[actor]}
		want = append(want, r)
		s.AtKey(at, actor, r.seq, func() { got = append(got, r) })
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].at != want[b].at {
			return want[a].at < want[b].at
		}
		if want[a].actor != want[b].actor {
			return want[a].actor < want[b].actor
		}
		return want[a].seq < want[b].seq
	})
	s.RunUntil(100)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("keyed execution order diverged from (time, actor, seq) sort")
	}
}

// TestKeyCompare walks the order one component at a time: time decides first,
// then the actor, then the actor's sequence number, and only a key equal in
// all three compares equal.
func TestKeyCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Key
		want int
	}{
		{Key{At: 1, Actor: 9, Seq: 9}, Key{At: 2, Actor: 1, Seq: 1}, -1}, // time outranks actor and seq
		{Key{At: -1, Actor: 1, Seq: 1}, Key{At: 0, Actor: 1, Seq: 1}, -1},
		{Key{At: 5, Actor: 1, Seq: 9}, Key{At: 5, Actor: 2, Seq: 1}, -1}, // actor outranks seq
		{Key{At: 5, Actor: 0, Seq: 7}, Key{At: 5, Actor: 1 << 63, Seq: 7}, -1},
		{Key{At: 5, Actor: 3, Seq: 1}, Key{At: 5, Actor: 3, Seq: 2}, -1},
		{Key{At: 5, Actor: 3, Seq: 2}, Key{At: 5, Actor: 3, Seq: 2}, 0},
		{Key{}, Key{}, 0},
	} {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("%+v.Compare(%+v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Compare(tc.a); got != -tc.want {
			t.Errorf("%+v.Compare(%+v) = %d, want %d", tc.b, tc.a, got, -tc.want)
		}
	}
}

// TestLaneAtKeyMergesWithHeapByKey checks the lane and the heap interleave
// in exact key order, and that a key regression on the lane panics.
func TestLaneAtKeyMergesWithHeapByKey(t *testing.T) {
	var s Scheduler
	var got []uint64
	s.SetLaneFn(func() { got = append(got, 0) })
	s.AtKey(10, 2, 1, func() { got = append(got, 2) })
	s.AtKey(10, 4, 1, func() { got = append(got, 4) })
	s.LaneAtKey(10, 3, 1) // lane event with actor 3: between the heap events
	s.RunUntil(10)
	want := []uint64{2, 0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("regressed lane key did not panic")
		}
	}()
	s.LaneAtKey(20, 5, 1)
	s.LaneAtKey(20, 4, 9) // actor regressed at equal time
}

// TestRunBeforeExcludesDeadline checks the window-phase primitive: events
// strictly before the deadline run, events at it wait, and the clock lands
// on the deadline.
func TestRunBeforeExcludesDeadline(t *testing.T) {
	var s Scheduler
	var ran []int64
	for _, at := range []int64{5, 10, 15} {
		at := at
		s.AtKey(at, 1, uint64(at), func() { ran = append(ran, at) })
	}
	s.RunBefore(10)
	if !reflect.DeepEqual(ran, []int64{5}) {
		t.Fatalf("RunBefore(10) ran %v, want [5]", ran)
	}
	if s.Now() != 10 {
		t.Fatalf("Now = %d, want 10", s.Now())
	}
	s.RunUntil(10)
	if !reflect.DeepEqual(ran, []int64{5, 10}) {
		t.Fatalf("RunUntil(10) after RunBefore ran %v, want [5 10]", ran)
	}
}

// TestShardedGlobalBeforeShardEvents pins barrier rule 3: a global event at
// time T runs before any shard event at T, and after shard events before T.
func TestShardedGlobalBeforeShardEvents(t *testing.T) {
	k := NewSharded(2, 1, 10)
	var order []string
	k.Shard(0).AtKey(5, 1, 1, func() { order = append(order, "shard@5") })
	k.Shard(1).AtKey(40, 2, 1, func() { order = append(order, "shard@40") })
	k.Global().At(40, func() { order = append(order, "global@40") })
	k.RunUntil(40)
	want := []string{"shard@5", "global@40", "shard@40"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if k.Now() != 40 {
		t.Fatalf("Now = %d, want 40", k.Now())
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", k.Processed())
	}
}

// TestShardedBarrierFnRunsEveryWindow checks the host hook fires at each
// barrier between the global phase and the next window.
func TestShardedBarrierFnRunsEveryWindow(t *testing.T) {
	k := NewSharded(4, 2, 25)
	var barriers int
	k.SetBarrierFn(func() { barriers++ })
	k.RunUntil(100)
	// Barriers at 0, 25, 50, 75 and the final one at 100.
	if barriers != 5 {
		t.Fatalf("barrier hook ran %d times, want 5", barriers)
	}
}

// TestShardedParallelExecutesAllShards drives many shards with fewer
// workers and checks every shard's events all ran.
func TestShardedParallelExecutesAllShards(t *testing.T) {
	const shards = 16
	k := NewSharded(shards, 4, 50)
	var ran atomic.Int64
	for i := 0; i < shards; i++ {
		s := k.Shard(i)
		for j := 0; j < 100; j++ {
			s.AtKey(int64(j%7)*40, uint64(i+1), uint64(j+1), func() { ran.Add(1) })
		}
	}
	k.RunUntil(400)
	if got := ran.Load(); got != shards*100 {
		t.Fatalf("ran %d events, want %d", got, shards*100)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", k.Pending())
	}
}

// TestShardedGlobalEventsSplitWindows checks a global event strictly inside
// a lookahead window becomes its own barrier: shard events after it still
// observe its effect.
func TestShardedGlobalEventsSplitWindows(t *testing.T) {
	k := NewSharded(2, 1, 1000) // window far larger than the timeline
	flag := false
	k.Global().At(30, func() { flag = true })
	var sawFlag bool
	k.Shard(0).AtKey(35, 1, 1, func() { sawFlag = flag })
	k.RunUntil(100)
	if !sawFlag {
		t.Fatal("shard event at 35 ran before the global event at 30")
	}
}

// TestNewShardedValidation pins the constructor's contract.
func TestNewShardedValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero shards", func() { NewSharded(0, 1, 10) })
	mustPanic("no lookahead", func() { NewSharded(2, 1, 0) })
	if k := NewSharded(4, 99, 10); k.Workers() != 4 {
		t.Errorf("workers not clamped to shards: %d", k.Workers())
	}
	if k := NewSharded(1, 1, 0); k.Shards() != 1 {
		t.Errorf("single shard with no lookahead must be allowed")
	}
}

// TestForEachRunsEveryIndexOnce checks that every index below n runs exactly
// once, whatever the worker count, including more workers than indices.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, workers := range []int{1, 2, 8} {
			runs := make([]atomic.Int32, n)
			ForEach(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times, want 1", n, workers, i, got)
				}
			}
		}
	}
}

// TestForEachSerialZeroAllocs locks in the one-worker path the kernel takes on
// every window of a single-worker run: with a func value bound beforehand it
// allocates nothing.
func TestForEachSerialZeroAllocs(t *testing.T) {
	sum := 0
	fn := func(i int) { sum += i }
	allocs := testing.AllocsPerRun(1000, func() { ForEach(64, 1, fn) })
	if allocs != 0 {
		t.Errorf("one-worker ForEach allocates %.1f times per call, want 0", allocs)
	}
	if sum != 1001*64*63/2 {
		t.Errorf("sum of indices = %d, want %d", sum, 1001*64*63/2)
	}
}
