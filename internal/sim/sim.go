// Package sim provides a deterministic discrete-event scheduler with a
// virtual millisecond clock. It is the substrate replacing the authors'
// Java event-driven simulator: all protocol experiments in this repository
// run on top of it.
//
// Determinism: events firing at the same virtual time run in scheduling
// order (a monotonically increasing sequence number breaks ties), and all
// randomness must come from RNGs seeded by the experiment, so a run is a
// pure function of its configuration and seed.
//
// The pending queue is a 4-ary min-heap of inline event values. Compared to
// container/heap over boxed *event pointers this removes one allocation and
// one interface conversion per scheduled event and halves the tree depth;
// the slice itself doubles as the free list, since popped slots are reused
// by later pushes.
//
// For event streams whose fire times are already monotone — the simulated
// network's deliveries, which its barrier releases in key order and which are
// the majority of all events — the scheduler additionally offers a lane: a
// flat FIFO ring that is merged with the heap at pop time in exact (time,
// sequence) order, so those events never pay heap costs at all.
//
// Sharded simulations (see ShardedScheduler) run one Scheduler per shard and
// need an event order that does not depend on how many shards or workers
// execute the run. For them every event carries an explicit (actor, seq) key
// — the scheduling peer and its private event counter — instead of the
// scheduler-local sequence number: ties at one virtual time resolve by
// (actor, seq), which is a pure function of the simulated world. At keeps the
// scheduler-local counter (with actor 0): the kernel's global queue, whose
// events run single-threaded at barriers, schedules through it.
package sim

// Key is the total order of simulation events: virtual time, then the
// scheduling actor, then that actor's private sequence number. Every queue
// that holds events or their payloads — the scheduler's heap and lane, the
// network's staged and link-delayed datagrams, the checkpoint sections that
// list them — orders by it, so a run is the same sequence on any shard or
// worker count.
type Key struct {
	At    int64 // virtual time, ms
	Actor uint64
	Seq   uint64
}

// Compare returns -1, 0 or +1 as k orders before, equal to or after o. It is
// written out instead of chaining cmp.Compare because this form fits the
// inliner's budget and the heap sifts call it once per level.
func (k Key) Compare(o Key) int {
	switch {
	case k.At != o.At:
		if k.At < o.At {
			return -1
		}
		return 1
	case k.Actor != o.Actor:
		if k.Actor < o.Actor {
			return -1
		}
		return 1
	case k.Seq < o.Seq:
		return -1
	case k.Seq > o.Seq:
		return 1
	}
	return 0
}

// event is a scheduled callback, stored inline in the heap slice. A nil fn
// marks a tick event: it runs the scheduler's shared tickFn with the event's
// actor, so periodic per-actor work (every simulated peer's shuffle loop)
// needs no per-actor closure — the event itself is the whole allocation.
type event struct {
	Key
	fn func()
}

// Scheduler is a discrete-event loop over virtual time. The zero Scheduler is
// ready to use. It is not safe for concurrent use: a Scheduler is always
// driven by one goroutine at a time (the whole simulation's, or its shard's
// current worker under a ShardedScheduler).
type Scheduler struct {
	now     int64
	seq     uint64
	pending []event // 4-ary min-heap ordered by Key
	// lane is the monotone FIFO source (see SetLaneFn): only the firing
	// coordinates are stored, laneFn runs for each of its events.
	lane   Ring[Key]
	laneFn func()
	// tickFn is the shared callback of fn-less tick events (see TickAtKey).
	tickFn func(actor uint64)
	// processed counts executed events, for run statistics.
	processed uint64
	// limit is the deadline of the RunUntil/RunBefore loop currently
	// executing (limitExcl marks RunBefore's strict bound); LaneContinue
	// honours it so a batched lane run never crosses the loop's window.
	// Outside a bounded loop (Step) limitSet is false and lane runs never
	// extend, preserving one-event-per-Step semantics.
	limit     int64
	limitSet  bool
	limitExcl bool
	// curActor/curSeq are the ordering key of the event currently
	// executing (see CurrentKey).
	curActor uint64
	curSeq   uint64
}

// Ring is a growable FIFO ring buffer. Hosts with their own monotone event
// streams (the simulated network's in-flight datagrams) reuse it so the
// grow/wrap logic lives in one place. The zero Ring is ready to use.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued elements.
func (q *Ring[T]) Len() int { return q.n }

// At returns a pointer to the i-th queued element (0 is the head) without
// removing it. Checkpoint capture iterates the ring with it; the pointer is
// valid until the next Push.
func (q *Ring[T]) At(i int) *T { return &q.buf[(q.head+i)%len(q.buf)] }

// Push appends e at the tail.
func (q *Ring[T]) Push(e T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
}

// Pop removes and returns the head element. It panics on an empty ring.
// The vacated slot is zeroed so popped elements can be collected.
func (q *Ring[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty ring")
	}
	e := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return e
}

// Peek returns a pointer to the head element without removing it. It
// panics on an empty ring.
func (q *Ring[T]) Peek() *T {
	if q.n == 0 {
		panic("sim: Peek on empty ring")
	}
	return &q.buf[q.head]
}

// tail returns a pointer to the most recently pushed element.
func (q *Ring[T]) tail() *T {
	return &q.buf[(q.head+q.n-1)%len(q.buf)]
}

// SetLaneFn installs the callback shared by all lane events. It must be set
// (once) before the first LaneAtKey call; hosts use a method value bound to
// their dispatcher so scheduling stays allocation-free.
func (s *Scheduler) SetLaneFn(fn func()) {
	if fn == nil {
		panic("sim: SetLaneFn called with nil fn")
	}
	s.laneFn = fn
}

// LaneAtKey schedules one lane event at time t with an explicit (actor, seq)
// ordering key; it runs laneFn, interleaved with heap events in exact key
// order. The full key must be monotone: not before the key of any lane
// event still pending. The sharded network's barrier pushes every datagram
// through here, each barrier a sorted key range past the previous one's, so
// the invariant holds by construction.
func (s *Scheduler) LaneAtKey(t int64, actor, seq uint64) {
	if s.laneFn == nil {
		panic("sim: LaneAtKey without SetLaneFn")
	}
	if t < s.now {
		t = s.now
	}
	k := Key{At: t, Actor: actor, Seq: seq}
	if s.lane.Len() > 0 && s.lane.tail().Compare(k) >= 0 {
		panic("sim: LaneAtKey key regressed")
	}
	s.lane.Push(k)
}

// SetTickFn installs the callback shared by all tick events (see TickAtKey).
// It must be set (once) before the first TickAtKey call; hosts use one method
// value per scheduler so arming ticks stays allocation-free.
func (s *Scheduler) SetTickFn(fn func(actor uint64)) {
	if fn == nil {
		panic("sim: SetTickFn called with nil fn")
	}
	s.tickFn = fn
}

// TickAtKey schedules a tick event at time t with an explicit (actor, seq)
// ordering key, exactly like AtKey — except that instead of carrying its own
// closure the event dispatches to the scheduler's shared tick callback with
// the actor as argument. Periodic per-actor work (every peer's shuffle loop)
// armed this way costs one inline heap entry and no per-actor closure: at a
// million peers that removes a million captured funcs from the heap.
func (s *Scheduler) TickAtKey(t int64, actor, seq uint64) {
	if s.tickFn == nil {
		panic("sim: TickAtKey without SetTickFn")
	}
	if t < s.now {
		t = s.now
	}
	s.pending = append(s.pending, event{Key: Key{At: t, Actor: actor, Seq: seq}})
	s.siftUp(len(s.pending) - 1)
}

// Now returns the current virtual time in milliseconds.
func (s *Scheduler) Now() int64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending returns the number of events not yet executed.
func (s *Scheduler) Pending() int { return len(s.pending) + s.lane.Len() }

// At schedules fn to run at the given virtual time. Times in the past are
// clamped to "immediately after the current event". fn must not be nil.
// Aside from amortized growth of the heap slice, scheduling allocates
// nothing; fn itself should be a reused func value on hot paths.
func (s *Scheduler) At(t int64, fn func()) {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.pending = append(s.pending, event{Key: Key{At: t, Seq: s.seq}, fn: fn})
	s.siftUp(len(s.pending) - 1)
}

// AtKey schedules fn at time t with an explicit (actor, seq) ordering key, so
// that same-time ties resolve by a key derived from the simulated world (the
// scheduling peer and its private event counter), never from scheduler-local
// state: the resulting order is invariant under the shard and worker count.
// Sharded hosts key every event this way, through the closure-free TickAtKey
// and LaneAtKey. Keys must be unique per (t, actor); actor 0 is reserved for
// At's scheduler-local counter.
func (s *Scheduler) AtKey(t int64, actor, seq uint64, fn func()) {
	if fn == nil {
		panic("sim: AtKey called with nil fn")
	}
	if t < s.now {
		t = s.now
	}
	s.pending = append(s.pending, event{Key: Key{At: t, Actor: actor, Seq: seq}, fn: fn})
	s.siftUp(len(s.pending) - 1)
}

const heapArity = 4

func (s *Scheduler) siftUp(i int) {
	h := s.pending
	e := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if e.Compare(h[parent].Key) >= 0 {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (s *Scheduler) siftDown(i int) {
	h := s.pending
	n := len(h)
	e := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].Compare(h[best].Key) < 0 {
				best = c
			}
		}
		if h[best].Compare(e.Key) >= 0 {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}

// pop removes and returns the earliest pending event. The vacated slot is
// cleared so the callback can be collected once executed.
func (s *Scheduler) pop() event {
	h := s.pending
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	s.pending = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return e
}

// next returns the firing coordinates of the earliest pending event (heap
// or lane) without removing it. ok is false when nothing is pending.
func (s *Scheduler) next() (at int64, fromLane bool, ok bool) {
	heapOK := len(s.pending) > 0
	laneOK := s.lane.Len() > 0
	switch {
	case !heapOK && !laneOK:
		return 0, false, false
	case !heapOK:
		return s.lane.Peek().At, true, true
	case !laneOK:
		return s.pending[0].At, false, true
	}
	h, l := &s.pending[0], s.lane.Peek()
	if l.Compare(h.Key) < 0 {
		return l.At, true, true
	}
	return h.At, false, true
}

// NextAt returns the fire time of the earliest pending event without
// executing it; ok is false when nothing is pending.
func (s *Scheduler) NextAt() (at int64, ok bool) {
	at, _, ok = s.next()
	return at, ok
}

// CurrentKey returns the (actor, seq) ordering key of the event currently
// executing. Together with Now it totally orders everything the event does:
// observers (the network's trace rings) stamp their records with it so that
// records from different shards merge back into the exact global execution
// order. During a batched lane run the key tracks the lane entry currently
// being delivered.
func (s *Scheduler) CurrentKey() (actor, seq uint64) { return s.curActor, s.curSeq }

// enter makes k the event now executing: the clock, CurrentKey and the
// processed count move together.
func (s *Scheduler) enter(k Key) {
	s.now = k.At
	s.curActor, s.curSeq = k.Actor, k.Seq
	s.processed++
}

// runNext executes the earliest pending event.
func (s *Scheduler) runNext(fromLane bool) {
	if fromLane {
		s.enter(s.lane.Pop())
		s.laneFn()
		return
	}
	e := s.pop()
	s.enter(e.Key)
	if e.fn == nil {
		s.tickFn(e.Actor)
		return
	}
	e.fn()
}

// LaneContinue extends the lane event currently executing: it consumes the
// next pending lane event iff it would be the scheduler's very next pick —
// strictly before every heap event in (time, actor, seq) order and within
// the driving loop's deadline — advancing the clock and the processed count
// exactly as the main loop's pop would. Hosts whose laneFn delivers one item
// per event call this in a loop to handle a whole run of back-to-back lane
// events inside one callback, amortizing dispatch without changing execution
// order: the batch ends precisely where an interleaved heap event would have
// preempted it, or where the RunUntil/RunBefore loop would have stopped.
// Because the check runs against the live heap, events scheduled by the
// items themselves are honoured mid-run. Outside a bounded loop it always
// declines, so Step still executes exactly one event.
func (s *Scheduler) LaneContinue() bool {
	if !s.limitSet || s.lane.Len() == 0 {
		return false
	}
	l := s.lane.Peek()
	if s.pastLimit(l.At) || (len(s.pending) > 0 && l.Compare(s.pending[0].Key) >= 0) {
		return false
	}
	s.enter(s.lane.Pop())
	return true
}

// pastLimit reports whether an event at the given time lies beyond the
// deadline of the bounded loop currently executing.
func (s *Scheduler) pastLimit(at int64) bool {
	return at > s.limit || (at == s.limit && s.limitExcl)
}

// RunUntil executes events in order until the queue is empty or the next
// event is later than deadline. The clock ends at deadline (or at the last
// event, whichever is later) so subsequent scheduling is consistent.
func (s *Scheduler) RunUntil(deadline int64) { s.run(deadline, false) }

// RunBefore executes events in order while they fire strictly before
// deadline, then advances the clock to deadline. It is the window-phase
// primitive of the sharded kernel: events at exactly deadline belong to the
// next window (they run after the barrier's global events).
func (s *Scheduler) RunBefore(deadline int64) { s.run(deadline, true) }

// run is the bounded loop behind RunUntil (excl false) and RunBefore (excl
// true).
func (s *Scheduler) run(deadline int64, excl bool) {
	prevLimit, prevSet, prevExcl := s.limit, s.limitSet, s.limitExcl
	s.limit, s.limitSet, s.limitExcl = deadline, true, excl
	for {
		at, fromLane, ok := s.next()
		if !ok || s.pastLimit(at) {
			break
		}
		s.runNext(fromLane)
	}
	s.limit, s.limitSet, s.limitExcl = prevLimit, prevSet, prevExcl
	if s.now < deadline {
		s.now = deadline
	}
}

// EachTick visits every pending tick event (scheduled through TickAtKey) in
// heap-array order, which is not sorted: checkpoint writers sort the
// collected keys themselves. Events carrying their own closure are skipped —
// a closure cannot be serialized, so hosts re-arm those structurally on
// restore (the experiment harness's global timeline from the config).
func (s *Scheduler) EachTick(fn func(Key)) {
	for i := range s.pending {
		if s.pending[i].fn == nil {
			fn(s.pending[i].Key)
		}
	}
}

// EachLane visits every pending lane event in FIFO (and hence key) order.
// Checkpoint writers pair the keys with the host's own in-flight payload
// queue, which LaneAtKey scheduling keeps in lockstep with the lane.
func (s *Scheduler) EachLane(fn func(Key)) {
	for i := 0; i < s.lane.Len(); i++ {
		fn(*s.lane.At(i))
	}
}

// RestoreClock sets the scheduler's virtual clock and processed-event count
// to values captured at a barrier. Restore paths call it after re-arming the
// pending events (arming first keeps At's past-clamping inert: a fresh
// scheduler's clock is zero, so no restored time can be clamped).
func (s *Scheduler) RestoreClock(now int64, processed uint64) {
	s.now, s.processed = now, processed
}

// Step executes exactly one event, if any, and reports whether it did.
func (s *Scheduler) Step() bool {
	_, fromLane, ok := s.next()
	if !ok {
		return false
	}
	s.runNext(fromLane)
	return true
}
