package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/ident"
)

// keyed builds an event with an explicit scheduler key.
func keyed(at int64, actor, seq uint64, op Op) Event {
	return Event{At: at, Actor: actor, Seq: seq, Op: op,
		From: ident.Endpoint{IP: 1, Port: 1}, To: ident.Endpoint{IP: 2, Port: 2}}
}

func TestSubAssignment(t *testing.T) {
	r := New(8)
	r.Record(keyed(1, 7, 1, OpDeliver))
	r.Record(keyed(1, 7, 1, OpSend)) // same key: sub 1
	r.Record(keyed(1, 7, 1, OpSend)) // same key: sub 2
	r.Record(keyed(1, 9, 2, OpSend)) // new key: sub resets
	es := r.Events()
	want := []uint32{0, 1, 2, 0}
	for i, e := range es {
		if e.Sub != want[i] {
			t.Errorf("event %d Sub=%d, want %d", i, e.Sub, want[i])
		}
	}
}

func TestNilShardedIsNoOp(t *testing.T) {
	var s *Sharded
	s.Shard(0).Record(keyed(1, 1, 1, OpSend))
	if s.Shards() != 0 || s.Total() != 0 || s.Merged() != nil {
		t.Error("nil Sharded not inert")
	}
	s.ServeTap()
	if _, ok := s.RequestTail(4, time.Millisecond); ok {
		t.Error("nil Sharded served a tap")
	}
}

// TestMergedShardInvariance is the heart of the sharded design: recording
// one global key-ordered stream split across different shard counts must
// merge back to the identical trace, including after per-ring eviction.
func TestMergedShardInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n, capacity = 5000, 512
	// One global stream in scheduler-key order: bursts of records under
	// distinct (at, actor, seq) keys, sorted the way the kernel executes
	// them. Records of one burst share a key and hence a shard, as in the
	// simulator.
	type burst struct {
		at    int64
		actor uint64
		seq   uint64
		n     int
	}
	var bursts []burst
	at, seq := int64(0), uint64(0)
	for total := 0; total < n; {
		at += int64(rng.Intn(3))
		seq += uint64(1 + rng.Intn(4))
		b := burst{at: at, actor: uint64(1 + rng.Intn(97)), seq: seq, n: 1 + rng.Intn(3)}
		bursts = append(bursts, b)
		total += b.n
	}
	sort.Slice(bursts, func(i, j int) bool {
		a, b := &bursts[i], &bursts[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.actor != b.actor {
			return a.actor < b.actor
		}
		return a.seq < b.seq
	})
	var stream []Event
	for _, b := range bursts {
		for k := 0; k < b.n; k++ {
			op := OpSend
			if k > 0 {
				op = OpDeliver
			}
			stream = append(stream, keyed(b.at, b.actor, b.seq, op))
		}
	}
	var want []Event
	for _, shards := range []int{1, 3, 16} {
		s := NewSharded(shards, capacity)
		for _, e := range stream {
			// Same placement rule as the simulator: an event's shard is a
			// pure function of its actor, never of time or load.
			s.Shard(int(e.Actor) % shards).Record(e)
		}
		got := s.Merged()
		if len(got) != capacity {
			t.Fatalf("shards=%d: merged %d events, want %d", shards, len(got), capacity)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: merged trace differs from 1-shard merge", shards)
		}
	}
	// The merged tail must equal the tail of the original stream with Subs
	// assigned.
	for i, e := range want {
		src := stream[len(stream)-capacity+i]
		if e.At != src.At || e.Actor != src.Actor || e.Seq != src.Seq {
			t.Fatalf("merged[%d] key (%d,%d,%d) != stream key (%d,%d,%d)",
				i, e.At, e.Actor, e.Seq, src.At, src.Actor, src.Seq)
		}
	}
}

func TestMergedTailBound(t *testing.T) {
	s := NewSharded(2, 64)
	for i := 0; i < 100; i++ {
		s.Shard(i % 2).Record(keyed(int64(i), uint64(i%2+1), uint64(i), OpSend))
	}
	if got := len(s.MergedTail(10)); got != 10 {
		t.Errorf("MergedTail(10) returned %d events", got)
	}
	if got := len(s.MergedTail(0)); got != 0 {
		t.Errorf("MergedTail(0) returned %d events", got)
	}
}

func TestTapServedAtBarrier(t *testing.T) {
	s := NewSharded(2, 16)
	s.Shard(0).Record(keyed(1, 1, 1, OpSend))
	s.Shard(1).Record(keyed(2, 2, 2, OpDeliver))
	done := make(chan struct{})
	var got []Event
	var ok bool
	go func() {
		got, ok = s.RequestTail(8, 5*time.Second)
		close(done)
	}()
	// Emulate the barrier loop: serve until the request lands.
	for {
		select {
		case <-done:
			if !ok || len(got) != 2 {
				t.Fatalf("tap: ok=%v events=%d, want 2", ok, len(got))
			}
			return
		default:
			s.ServeTap()
		}
	}
}

func TestTapTimesOutWithoutBarrier(t *testing.T) {
	s := NewSharded(1, 4)
	if _, ok := s.RequestTail(4, 10*time.Millisecond); ok {
		t.Error("tap served with no barrier running")
	}
	// The mailbox must be clean again: a later served request works.
	done := make(chan struct{})
	go func() {
		if _, ok := s.RequestTail(4, 5*time.Second); !ok {
			t.Error("tap not served after a previous timeout")
		}
		close(done)
	}()
	for {
		select {
		case <-done:
			return
		default:
			s.ServeTap()
		}
	}
}

// TestRecordAllocs pins the hot-path cost: recording on a live ring and on
// a nil ring (tracing disabled) both allocate nothing.
func TestRecordAllocs(t *testing.T) {
	r := New(128)
	e := keyed(1, 2, 3, OpSend)
	if a := testing.AllocsPerRun(1000, func() { r.Record(e) }); a != 0 {
		t.Errorf("live Record allocates %.1f/op, want 0", a)
	}
	var nilRing *Ring
	if a := testing.AllocsPerRun(1000, func() { nilRing.Record(e) }); a != 0 {
		t.Errorf("nil Record allocates %.1f/op, want 0", a)
	}
}
