// Package probes holds the benchmark's layer probes: one file per layer of
// the repository, each a micro-driver that times the layer's public calls at
// the sizes the workloads use (view 15, 8-entry messages, 64-session NAT
// devices, a 10 000-table routing working set). Probes measure from outside:
// nothing in the program is instrumented for them.
package probes

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
)

// Metric is one probe result.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// layers maps a layer name to its probe, in the order Run("all") runs them.
var layers = []struct {
	name string
	run  func() ([]Metric, error)
}{
	{"sim", simProbe},
	{"simnet", simnetProbe},
	{"nat", natProbe},
	{"rt", rtProbe},
	{"intern", internProbe},
	{"view", viewProbe},
	{"core", coreProbe},
	{"wire", wireProbe},
	{"trace", traceProbe},
	{"obs", obsProbe},
	{"exp", expProbe},
	{"snapshot", snapshotProbe},
}

// Layers lists the layers that have probes.
func Layers() []string {
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.name
	}
	return names
}

// Run runs the probes of one layer, or of every layer for "all".
func Run(layer string) ([]Metric, error) {
	var out []Metric
	found := false
	for _, l := range layers {
		if layer != "all" && layer != l.name {
			continue
		}
		found = true
		ms, err := l.run()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", l.name, err)
		}
		out = append(out, ms...)
	}
	if !found {
		return nil, fmt.Errorf("no probes for layer %q (have %v)", layer, Layers())
	}
	return out, nil
}

// Every timing is the median of this many batches.
const batches = 7

// batchTime is how long one batch should run: long enough that the clock
// reads and the loop are noise, short enough that all probes finish in a few
// seconds.
const batchTime = 8 * time.Millisecond

// nsPerOp times fn, which performs ops operations per call, and returns the
// median nanoseconds per operation over the batches. The first call sizes
// the batch and warms caches; it is not measured.
func nsPerOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	once := time.Since(start)
	calls := 1
	if once < batchTime {
		calls = int(batchTime/(once+1)) + 1
	}
	samples := make([]float64, batches)
	for b := range samples {
		start := time.Now()
		for c := 0; c < calls; c++ {
			fn()
		}
		samples[b] = float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
	}
	return stats.Quantile(samples, 0.5)
}

// allocsPerOp returns the heap allocations per call of fn, averaged over
// runs calls after one warm-up call (the shape of testing.AllocsPerRun,
// without importing the testing package into a benchmark binary).
func allocsPerOp(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// heapBytes returns how many heap bytes build() keeps alive, by the growth
// of the live heap across it. The result of build is returned so the caller
// keeps it reachable until after the measurement.
func heapBytes[T any](build func() T) (T, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

func ns(name string, v float64) Metric    { return Metric{Name: name, Unit: "ns", Value: v} }
func count(name string, v float64) Metric { return Metric{Name: name, Unit: "count", Value: v} }
func bytesOf(name string, v float64) Metric {
	return Metric{Name: name, Unit: "B", Value: v}
}
