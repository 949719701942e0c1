package probes

import (
	"time"

	"repro/internal/intern"
	"repro/internal/stats"
)

// internProbe times the descriptor intern table the routing tables of a
// shard share: the hit every routed datagram pays, the first-sight insert,
// and the bytes one stored descriptor costs at the 10k population.
func internProbe() ([]Metric, error) {
	const population = rtTables
	table, bytes := heapBytes(func() *intern.Descriptors {
		t := &intern.Descriptors{}
		for i := 0; i < population; i++ {
			t.Intern(rtDesc(i))
		}
		return t
	})
	var sink intern.Handle
	hit := nsPerOp(population, func() {
		for i := 0; i < population; i++ {
			sink += table.Intern(rtDesc(i))
		}
	})
	if sink == 0 {
		panic("unreachable")
	}

	// A miss appends, so each batch fills a fresh table (index growth
	// included: that is what a run pays while the population is learned).
	samples := make([]float64, batches)
	for b := range samples {
		t := &intern.Descriptors{}
		start := time.Now()
		for i := 0; i < population; i++ {
			t.Intern(rtDesc(i))
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / population
	}

	return []Metric{
		ns("intern.hit_ns", hit),
		ns("intern.miss_ns", stats.Quantile(samples, 0.5)),
		bytesOf("intern.bytes_per_desc", bytes/float64(table.Len())),
	}, nil
}
