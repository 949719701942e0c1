package probes

import (
	"repro/internal/trace"
)

// traceProbe times what a traced run adds per network event — one record
// into the shard's ring — and what reading the trace costs: the k-way merge
// of eight full rings into scheduler-key order, per merged event.
func traceProbe() ([]Metric, error) {
	const (
		shards   = 8
		capacity = 4096
	)
	ring := trace.New(capacity)
	var seq uint64
	record := nsPerOp(64, func() {
		for i := 0; i < 64; i++ {
			seq++
			ring.Record(trace.Event{At: int64(seq / 64), Actor: seq % 64, Seq: seq, Op: trace.OpDeliver, Kind: 1})
		}
	})

	sharded := trace.NewSharded(shards, capacity)
	for k := uint64(0); k < shards*capacity; k++ {
		// Each ring key-sorted, the shards interleaved, as a run leaves them.
		sharded.Shard(int(k % shards)).Record(trace.Event{At: int64(k / 512), Actor: k % 512, Seq: k, Op: trace.OpSend, Kind: 1})
	}
	merged := 0
	merge := nsPerOp(shards*capacity, func() { merged += len(sharded.Merged()) })
	if merged == 0 {
		panic("unreachable")
	}
	return []Metric{
		ns("trace.record_ns", record),
		ns("trace.merged_ns_per_event", merge),
	}, nil
}
