package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedScheduler is the sharded, conservatively-synchronized parallel
// kernel. It partitions the simulated world into S shards, each driven by
// its own Scheduler, and advances virtual time in safe windows derived from
// the minimum cross-shard event latency (classic conservative-PDES
// lookahead: with a constant one-way link latency L, events executed in the
// window [T, T+L) can only schedule cross-shard work at or after T+L, so
// shards never need to look at each other mid-window). Within a window the
// shards run in parallel through ForEach; at each barrier the host
// (the simulated network) merges cross-shard traffic in a deterministic
// order and the kernel runs its global events.
//
// Determinism contract: a run is a pure function of the simulated world and
// its seeds — never of the worker count or the shard count. Three rules
// deliver that:
//
//  1. Every shard event carries a (time, actor, per-actor seq) key (see
//     Scheduler.AtKey). Actors are peers; their counters advance only with
//     their own deterministic execution, so keys never depend on scheduler
//     state or on which worker ran the shard.
//  2. Cross-shard messages merge at barriers in sorted key order (the host
//     sorts each batch), so arrival order is the same no matter which shard
//     — or how many shards — staged the messages.
//  3. Global events (round samples, churn, the scenario timeline) run on a
//     single global queue at barrier times, strictly before any shard event
//     at the same virtual time; barrier times themselves depend only on the
//     window size and the global timeline.
//
// Shard state (peers, their engines, NAT devices, per-shard pools) must be
// touched only by the shard's events or at barriers; each window's ForEach
// starts and joins its goroutines between two barriers, which provides the
// happens-before edges that make barrier-time access race-free.
type ShardedScheduler struct {
	window int64 // lookahead: safe window length in virtual ms
	now    int64 // last completed barrier time
	shards []*Scheduler
	global Scheduler
	// barrierFn, when set, runs single-threaded at every barrier after the
	// global events and before the next window's shard events: the network
	// drains its cross-shard mailboxes here.
	barrierFn func()
	// probe, when set, accumulates phase wall times and event counts (see
	// Timing). A nil probe costs nothing; a set one reads the wall clock
	// around phases but never feeds anything back into the simulation.
	probe *Timing
	// checkpointFn, when set, runs single-threaded at every barrier after
	// barrierFn, when all shard events up to the barrier time have executed
	// and the host's staging mailboxes are drained — the one point where
	// the whole world is quiescent and serializable. Returning true aborts
	// the RunUntil loop (checkpoint-then-exit on a signal); the clock stays
	// at the barrier. A nil hook costs one pointer check per barrier.
	checkpointFn func(now int64) (stop bool)

	workers   int
	deadline  int64 // phase parameters, set before each window's ForEach
	inclusive bool
	runShards func(i int) // runShard bound once: a serial window allocates nothing
}

// NewSharded creates a kernel with the given shard and worker counts and
// lookahead window in virtual milliseconds. workers < 1 defaults to
// GOMAXPROCS; it is clamped to the shard count. The shard count and window
// are part of the simulation's structure, not of its observable behavior:
// results are invariant under both (see the determinism contract above),
// so hosts pick them purely for throughput.
func NewSharded(shards, workers int, windowMs int64) *ShardedScheduler {
	if shards < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if shards > 1 && windowMs < 1 {
		panic("sim: NewSharded needs a positive lookahead window for more than one shard")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	k := &ShardedScheduler{window: windowMs, workers: workers}
	k.runShards = k.runShard
	k.shards = make([]*Scheduler, shards)
	for i := range k.shards {
		k.shards[i] = &Scheduler{}
	}
	return k
}

// Shards returns the number of shards.
func (k *ShardedScheduler) Shards() int { return len(k.shards) }

// Workers returns the effective worker count.
func (k *ShardedScheduler) Workers() int { return k.workers }

// Shard returns shard i's scheduler. Schedule on it only from the shard's
// own events or at barriers.
func (k *ShardedScheduler) Shard(i int) *Scheduler { return k.shards[i] }

// Global returns the global event queue. Global events run single-threaded
// at barriers, before same-time shard events; schedule on it only from
// setup code or from other global events.
func (k *ShardedScheduler) Global() *Scheduler { return &k.global }

// SetBarrierFn installs the host's barrier hook (cross-shard mailbox
// drain). It runs single-threaded at every barrier, after the barrier's
// global events.
func (k *ShardedScheduler) SetBarrierFn(fn func()) { k.barrierFn = fn }

// SetCheckpointFn installs (or, with nil, removes) the barrier checkpoint
// hook. It runs single-threaded at every barrier, after the global events
// and the host's mailbox drain, so everything scheduled at or before the
// barrier time has fully executed when it fires; returning true stops the
// RunUntil loop at the barrier. Install before RunUntil.
func (k *ShardedScheduler) SetCheckpointFn(fn func(now int64) (stop bool)) { k.checkpointFn = fn }

// RestoreNow sets the kernel's barrier clock to a time captured by a
// checkpoint. Call before RunUntil, after restoring the shard and global
// schedulers (see Scheduler.RestoreClock): the first barrier of the resumed
// run then replays at exactly the captured time, and the window cadence
// continues as the original run's would have.
func (k *ShardedScheduler) RestoreNow(t int64) { k.now = t }

// SetProbe installs (or, with nil, removes) the phase-timing probe. The
// probe must be sized for this kernel's shard count. Install before RunUntil.
func (k *ShardedScheduler) SetProbe(t *Timing) {
	if t != nil && t.Shards() != len(k.shards) {
		panic("sim: SetProbe with a Timing sized for a different shard count")
	}
	k.probe = t
}

// Now returns the last completed barrier time. Between barriers, shard
// clocks may be ahead of it (within the current window).
func (k *ShardedScheduler) Now() int64 { return k.now }

// Processed returns the total number of events executed across all shards
// and the global queue. It is itself deterministic: the same run executes
// the same events whatever the worker or shard count.
func (k *ShardedScheduler) Processed() uint64 {
	total := k.global.Processed()
	for _, s := range k.shards {
		total += s.Processed()
	}
	return total
}

// Pending returns the number of events not yet executed, excluding traffic
// still staged in host mailboxes.
func (k *ShardedScheduler) Pending() int {
	total := k.global.Pending()
	for _, s := range k.shards {
		total += s.Pending()
	}
	return total
}

// RunUntil drives the kernel to the given virtual time: windows of shard
// events bounded by the lookahead, barriers running global events and the
// host's mailbox drain between them. Events at exactly end run (global ones
// first), matching Scheduler.RunUntil.
func (k *ShardedScheduler) RunUntil(end int64) {
	for {
		var t0 time.Time
		if k.probe != nil {
			t0 = time.Now()
		}
		k.global.RunUntil(k.now)
		if k.barrierFn != nil {
			k.barrierFn()
		}
		if k.probe != nil {
			k.probe.recordBarrier(time.Since(t0).Nanoseconds(), k.now, int64(k.Pending()), k.Processed())
		}
		if k.checkpointFn != nil && k.checkpointFn(k.now) {
			return
		}
		if k.now >= end {
			k.phase(end, true)
			if k.probe != nil {
				k.probe.recordBarrier(0, end, int64(k.Pending()), k.Processed())
			}
			return
		}
		b := end
		if k.window > 0 && k.now+k.window < b {
			b = k.now + k.window
		}
		// Global events define extra barriers: the next window must not
		// run shard events past one.
		if g, ok := k.global.NextAt(); ok && g < b {
			b = g
		}
		k.phase(b, false)
		k.now = b
	}
}

// phase executes one window on every shard: events strictly before deadline
// (or up to and including it, for the final phase), advancing each shard
// clock to deadline.
func (k *ShardedScheduler) phase(deadline int64, inclusive bool) {
	k.deadline, k.inclusive = deadline, inclusive
	if k.probe != nil {
		k.probe.recordWindow()
	}
	ForEach(len(k.shards), k.workers, k.runShards)
}

// runShard executes the current phase on shard i, timing it when a probe is
// installed. Only the claiming goroutine touches the shard during the phase,
// so the Processed delta needs no synchronization beyond the probe's own slot.
func (k *ShardedScheduler) runShard(i int) {
	s, p := k.shards[i], k.probe
	var t0 time.Time
	e0 := s.Processed()
	if p != nil {
		t0 = time.Now()
	}
	if k.inclusive {
		s.RunUntil(k.deadline)
	} else {
		s.RunBefore(k.deadline)
	}
	if p != nil {
		p.recordShard(i, time.Since(t0).Nanoseconds(), s.Processed()-e0)
	}
}

// ForEach calls fn(i) for every i in [0, n) on up to workers goroutines, which
// claim indices off one atomic counter, and returns when every call has. With
// one worker the calls run in order on the caller's goroutine and allocate
// nothing. Otherwise the caller only waits: had it claimed indices too, it
// would start while its helper waited tens of microseconds for an idle
// processor to steal it, a tenth of a 10k-peer kernel window on two CPUs.
func ForEach(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	claim := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	w := min(workers, n)
	wg.Add(w)
	for ; w > 0; w-- {
		go claim()
	}
	wg.Wait()
}
