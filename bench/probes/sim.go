package probes

import (
	"math/rand"

	"repro/internal/sim"
)

// pendingEvents is the queue depth the heap and tick probes hold: the order
// of a 10k-peer shard's pending ticks.
const pendingEvents = 10_000

// simProbe times the three ways an event goes through a sim.Scheduler: the
// monotone lane with LaneContinue batching (constant-latency deliveries), the
// 4-ary heap under a hold model at 10 000 pending events (jittered
// deliveries, sim-storm-1k), and self-re-arming tick events (every peer's
// shuffle loop).
func simProbe() ([]Metric, error) {
	const batch = 1024

	var lane sim.Scheduler
	lane.SetLaneFn(func() {
		for lane.LaneContinue() {
		}
	})
	var at int64
	var seq uint64
	laneBatch := func() {
		at++
		for i := 0; i < batch; i++ {
			seq++
			lane.LaneAtKey(at, uint64(i), seq)
		}
		lane.RunUntil(at)
	}
	laneNs := nsPerOp(batch, laneBatch)
	laneAllocs := allocsPerOp(100, laneBatch)

	var heap sim.Scheduler
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	for i := 0; i < pendingEvents; i++ {
		heap.AtKey(int64(rng.Intn(5000)), uint64(i), 1, fn)
	}
	var heapSeq uint64
	heapNs := nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			heap.Step()
			heapSeq++
			heap.AtKey(heap.Now()+int64(rng.Intn(5000)), heapSeq%pendingEvents, heapSeq, fn)
		}
	})

	var tick sim.Scheduler
	var tickSeq uint64
	tick.SetTickFn(func(actor uint64) {
		tickSeq++
		tick.TickAtKey(tick.Now()+5000, actor, tickSeq)
	})
	for i := 0; i < pendingEvents; i++ {
		tick.TickAtKey(int64(i%5000), uint64(i), 0)
	}
	tickNs := nsPerOp(batch, func() {
		for i := 0; i < batch; i++ {
			tick.Step()
		}
	})

	return []Metric{
		ns("sim.lane_ns_per_event", laneNs),
		ns("sim.heap_ns_per_event", heapNs),
		ns("sim.tick_ns_per_event", tickNs),
		count("sim.lane_allocs", laneAllocs),
	}, nil
}
