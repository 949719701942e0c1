package trace

import (
	"sync/atomic"
	"time"
)

// Sharded is a set of per-shard rings plus a deterministic merge. Each
// simulation shard writes its own ring lock-free from the delivery hot
// path; because a shard executes its events in scheduler-key order, every
// ring is individually sorted by (At, Actor, Seq, Sub), and Merged
// reassembles the global order with a k-way merge.
//
// Every ring gets the full capacity. The merged tail is trimmed to that
// same capacity, which makes it independent of the shard count: the global
// last-C events are always a subset of the union of the per-shard last-C
// sets, so a 1-shard and a 16-shard run of the same experiment produce
// byte-identical merged traces.
//
// A nil *Sharded is a valid no-op recorder.
type Sharded struct {
	rings []*Ring
	cap   int

	// tap is the live-read mailbox: an HTTP handler posts a request and a
	// barrier (where no shard worker is running) serves it. This is the
	// only safe way to read the rings mid-run.
	tap atomic.Pointer[tapRequest]
}

type tapRequest struct {
	n    int
	done chan []Event
}

// NewSharded creates one ring of the given capacity per shard.
func NewSharded(shards, capacity int) *Sharded {
	if shards <= 0 {
		panic("trace: shards must be positive")
	}
	s := &Sharded{rings: make([]*Ring, shards), cap: capacity}
	for i := range s.rings {
		s.rings[i] = New(capacity)
	}
	return s
}

// Shards returns the number of per-shard rings (0 on nil).
func (s *Sharded) Shards() int {
	if s == nil {
		return 0
	}
	return len(s.rings)
}

// Shard returns shard i's ring for lock-free recording. Nil receiver or
// out-of-range index yield a nil (no-op) ring.
func (s *Sharded) Shard(i int) *Ring {
	if s == nil || i < 0 || i >= len(s.rings) {
		return nil
	}
	return s.rings[i]
}

// Total returns the number of events ever recorded across all shards.
func (s *Sharded) Total() uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for _, r := range s.rings {
		t += r.Total()
	}
	return t
}

// Merged k-way merges the per-shard rings by (At, Actor, Seq, Sub) and
// returns the most recent cap events of the union, oldest first. The
// result is bit-identical for any worker or shard count. Only call when no
// shard worker can be recording: at a barrier, or after the run.
func (s *Sharded) Merged() []Event {
	if s == nil {
		return nil
	}
	return s.MergedTail(s.cap)
}

// MergedTail is Merged trimmed to the most recent n events (n <= cap
// is exact; larger n cannot see past the per-ring capacity).
func (s *Sharded) MergedTail(n int) []Event {
	if s == nil || n <= 0 {
		return nil
	}
	runs := make([][]Event, 0, len(s.rings))
	total := 0
	for _, r := range s.rings {
		if ev := r.Events(); len(ev) > 0 {
			runs = append(runs, ev)
			total += len(ev)
		}
	}
	merged := mergeRuns(runs, total)
	if len(merged) > n {
		merged = merged[len(merged)-n:]
	}
	return merged
}

// mergeRuns merges key-sorted runs into one key-sorted slice.
func mergeRuns(runs [][]Event, total int) []Event {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	out := make([]Event, 0, total)
	for {
		best := -1
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			if best < 0 || keyLess(&run[0], &runs[best][0]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, runs[best][0])
		runs[best] = runs[best][1:]
	}
}

// RequestTail asks the next barrier for the most recent n merged events and
// waits up to timeout for it to be served. It is the race-free way to read
// a live trace from another goroutine (e.g. an HTTP handler): shard rings
// are only touched from barrier context. ok is false on timeout — the run
// may be finished (no more barriers; use Merged directly once no writer
// remains) or wedged.
func (s *Sharded) RequestTail(n int, timeout time.Duration) (events []Event, ok bool) {
	if s == nil {
		return nil, false
	}
	req := &tapRequest{n: n, done: make(chan []Event, 1)}
	// Single-flight: a concurrent request already in the mailbox wins.
	if !s.tap.CompareAndSwap(nil, req) {
		return nil, false
	}
	select {
	case ev := <-req.done:
		return ev, true
	case <-time.After(timeout):
		// Best-effort cancel; a barrier may still serve the stale request
		// into the buffered channel, which is then garbage.
		s.tap.CompareAndSwap(req, nil)
		return nil, false
	}
}

// ServeTap answers a pending RequestTail, if any. The simulated network
// calls it at every barrier, where all shard workers are quiescent. The
// check is one atomic load when no request is pending.
func (s *Sharded) ServeTap() {
	if s == nil {
		return
	}
	req := s.tap.Swap(nil)
	if req == nil {
		return
	}
	req.done <- s.MergedTail(req.n)
}
