// Package obs is the observability layer of the reproduction: a per-shard
// metrics registry, incremental overlay-health accumulators fed by view
// mutation hooks, the kernel's phase-timing probe, and a live HTTP ops
// endpoint serving Prometheus text, expvar-style JSON, and pprof.
//
// Everything here obeys one contract (DESIGN.md §9): observing a simulation
// never changes it. Instrumentation writes are one-way — counters, gauges
// and tallies absorb values from the run, and nothing in the simulation ever
// reads them back — so enabling metrics is bit-identity-safe for any worker
// and shard count. Hot-path writes (Counter.Add, Gauge.Set,
// Histogram.Observe, the health hooks) perform no allocation; they are
// atomic because the HTTP goroutine reads mid-run, but each shard writes its
// own cache-line-padded slot, so the atomics are uncontended.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

const cacheLine = 64

// slot64 is one shard's private counter cell, padded so neighbouring shards
// never share a cache line.
type slot64 struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// Counter is a monotone per-shard counter. Shards add to their own slot;
// Total merges at read time (order-independent sums, so the merged value is
// deterministic once the run has quiesced).
type Counter struct {
	name, help string
	slots      []slot64
}

// Add adds d to the shard's slot.
func (c *Counter) Add(shard int, d uint64) { c.slots[shard].v.Add(d) }

// Inc adds one to the shard's slot.
func (c *Counter) Inc(shard int) { c.slots[shard].v.Add(1) }

// Total merges every shard's slot.
func (c *Counter) Total() uint64 {
	var t uint64
	for i := range c.slots {
		t += c.slots[i].v.Load()
	}
	return t
}

// Gauge is a float64 gauge with a single writer at a time (barrier context
// or a CLI's report loop); readers may load concurrently.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value loads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket per-shard histogram. Bounds are upper bucket
// edges in ascending order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	name, help string
	bounds     []float64
	shards     []histShard
}

type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
	buckets []atomic.Uint64
	_       [cacheLine - 40]byte
}

// Observe records v into the shard's slot.
func (h *Histogram) Observe(shard int, v float64) {
	s := &h.shards[shard]
	s.count.Add(1)
	addFloat(&s.sum, v)
	for i, b := range h.bounds {
		if v <= b {
			s.buckets[i].Add(1)
			return
		}
	}
	s.buckets[len(h.bounds)].Add(1)
}

// Count merges the observation count across shards.
func (h *Histogram) Count() uint64 {
	var t uint64
	for i := range h.shards {
		t += h.shards[i].count.Load()
	}
	return t
}

// Sum merges the observed sum across shards.
func (h *Histogram) Sum() float64 {
	var t float64
	for i := range h.shards {
		t += math.Float64frombits(h.shards[i].sum.Load())
	}
	return t
}

// bucketTotals merges per-bucket counts across shards (non-cumulative).
func (h *Histogram) bucketTotals() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		for j := range out {
			out[j] += h.shards[i].buckets[j].Load()
		}
	}
	return out
}

// addFloat accumulates a float64 into atomic bits (uncontended per shard, so
// the CAS loop almost never retries).
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Registry holds a run's metrics, keyed by Prometheus-style names. Metric
// registration takes a lock and may allocate; it happens at setup or barrier
// context, never on the event hot path. Lookups are idempotent: asking for
// an existing name returns the existing metric (and panics if the kind
// differs — that is a programming error, not a runtime condition).
type Registry struct {
	shards int
	mu     sync.Mutex
	byName map[string]any
	order  []string
}

// NewRegistry creates a registry whose per-shard metrics have the given
// number of slots. Hosts with no shard structure pass 1.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		panic("obs: NewRegistry needs at least one shard")
	}
	return &Registry{shards: shards, byName: make(map[string]any)}
}

// Shards returns the slot count per-shard metrics are created with.
func (r *Registry) Shards() int { return r.shards }

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

func (r *Registry) lookup(name string, make func() any) any {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := make()
	r.byName[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, func() any {
		return &Counter{name: name, help: help, slots: make([]slot64, r.shards)}
	})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, func() any { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	m := r.lookup(name, func() any {
		h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...)}
		h.shards = make([]histShard, r.shards)
		for i := range h.shards {
			h.shards[i].buckets = make([]atomic.Uint64, len(bounds)+1)
		}
		return h
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return h
}

// snapshot returns the registered metrics in registration order.
func (r *Registry) snapshot() []any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]any, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, shards merged at read time.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, m := range r.snapshot() {
		switch m := m.(type) {
		case *Counter:
			promHeader(w, m.name, m.help, "counter")
			fmt.Fprintf(w, "%s %d\n", m.name, m.Total())
		case *Gauge:
			promHeader(w, m.name, m.help, "gauge")
			fmt.Fprintf(w, "%s %g\n", m.name, m.Value())
		case *Histogram:
			promHeader(w, m.name, m.help, "histogram")
			var cum uint64
			totals := m.bucketTotals()
			for i, b := range m.bounds {
				cum += totals[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, fmt.Sprintf("%g", b), cum)
			}
			cum += totals[len(m.bounds)]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(w, "%s_sum %g\n", m.name, m.Sum())
			fmt.Fprintf(w, "%s_count %d\n", m.name, m.Count())
		}
	}
}

func promHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// JSONValues returns the merged metric values as a name → value map:
// counters as integers, gauges as floats, histograms as {count, sum,
// buckets} objects.
func (r *Registry) JSONValues() map[string]any {
	out := make(map[string]any)
	for _, m := range r.snapshot() {
		switch m := m.(type) {
		case *Counter:
			out[m.name] = m.Total()
		case *Gauge:
			out[m.name] = m.Value()
		case *Histogram:
			buckets := make(map[string]uint64, len(m.bounds)+1)
			totals := m.bucketTotals()
			for i, b := range m.bounds {
				buckets[fmt.Sprintf("%g", b)] = totals[i]
			}
			buckets["+Inf"] = totals[len(m.bounds)]
			out[m.name] = map[string]any{"count": m.Count(), "sum": m.Sum(), "buckets": buckets}
		}
	}
	return out
}
