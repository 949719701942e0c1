package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host reference. The machine this benchmark is gated on is a 2-vCPU
// microVM on a shared host whose speed moves by a factor of up to three for
// minutes at a time (README "The host reference"): no statistic of one run
// holds still against that, because every repeat of the run is slow together.
// What does hold still is the ratio between the program and a fixed piece of
// work measured at the same moments. So while a metered section runs, the
// benchmark times two kernels of its own in short slices between the
// program's steps, and every time metric is reported in reference time: the
// measured time divided by the host factor of its own section.
//
//	host factor = (alu / aluNominal)^aluWeight x (search / searchNominal)^searchWeight
//
// alu is the time of one step of a register-only arithmetic loop, search the
// time of one binary search in a 32 MiB sorted table (mispredicted branches
// over every level of the cache hierarchy). The weights are empirical. They
// were fitted on three traces of 17 to 25 minutes, each cycling the three
// sim-* workloads through calm and slow regimes of that host: the program
// slows down more than either kernel does, and about as much as their product
// with these weights (the logarithm of a repeat's time moved with a standard
// deviation of 0.14-0.29 as the clock read it and of 0.05-0.11 in reference
// time; README has the table and what else was tried). The nominal values
// are the kernels' readings inside a sim-steady-10k repeat in a calm regime,
// so that there reference time reads as wall time. All four are constants of
// the benchmark: changing one rescales every time metric of every workload.
const (
	aluNominalNs    = 1.40
	searchNominalNs = 400.0
	aluWeight       = 0.5
	searchWeight    = 1.0

	// One slice of each kernel takes about 0.6 ms on a calm host.
	aluSteps      = 400_000
	searchSteps   = 1_000
	searchEntries = 4 << 20 // x 8 B = 32 MiB

	// pollInterval is the least time between two slices taken from a
	// program hook: 0.6 ms in every 20 ms keeps the reference under 3% of a
	// section, and that time is taken out of the section again.
	pollInterval = 20 * time.Millisecond
	// bracketRounds is how many slices of each kernel open and close every
	// metered section, so that a section too short for a hook to fire still
	// has a reference of its own.
	bracketRounds = 3
)

const (
	kernelALU = iota
	kernelSearch
	kernels
)

// hostRef runs the reference kernels and keeps running totals; a meter reads
// the totals when it starts and stops and works with the difference.
type hostRef struct {
	mu     sync.Mutex
	table  []uint64 // sorted, outside the Go heap so GC pacing does not see it
	x      uint64   // xorshift state: the search keys
	a, b   uint64   // the arithmetic loop's registers
	c, d   uint64
	sink   uint64
	next   int // kernel of the next slice
	last   time.Time
	totals refTotals
}

// refTotals is everything the kernels have cost since the process started.
type refTotals struct {
	ns    [kernels]float64
	steps [kernels]float64
	spent time.Duration
}

// host is the process's host reference; runOne starts it before a workload
// runs.
var host *hostRef

func newHostRef() (*hostRef, error) {
	h := &hostRef{x: 88172645463325252, a: 1, b: 2, c: 3, d: 4}
	mem, err := syscall.Mmap(-1, 0, searchEntries*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference table: %w", err)
	}
	h.table = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), searchEntries)
	// Sorted by construction: random gaps that fill the 64-bit range.
	const maxGap = math.MaxUint64/searchEntries - 1
	var v uint64
	for i := range h.table {
		v += 1 + h.rnd()%maxGap
		h.table[i] = v
	}
	return h, nil
}

// residentMiB is what the reference table adds to the process's peak RSS.
func (h *hostRef) residentMiB() float64 { return float64(len(h.table)*8) / (1 << 20) }

func (h *hostRef) rnd() uint64 {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	return h.x
}

// slice runs the next kernel once. Callers hold h.mu.
func (h *hostRef) slice() {
	k := h.next
	h.next = (h.next + 1) % kernels
	var steps int
	start := time.Now()
	switch k {
	case kernelALU:
		steps = aluSteps
		a, b, c, d := h.a, h.b, h.c, h.d
		for i := 0; i < steps; i++ {
			a = a*6364136223846793005 + 1
			b = b*6364136223846793005 + 3
			c ^= c << 13
			c ^= c >> 7
			d += a ^ b
		}
		h.a, h.b, h.c, h.d = a, b, c, d
	case kernelSearch:
		steps = searchSteps
		table := h.table
		for i := 0; i < steps; i++ {
			key := h.rnd()
			h.sink += uint64(sort.Search(len(table), func(i int) bool { return table[i] >= key }))
		}
	}
	end := time.Now()
	h.totals.ns[k] += float64(end.Sub(start).Nanoseconds())
	h.totals.steps[k] += float64(steps)
	h.totals.spent += end.Sub(start)
	h.last = end
}

// poll is what the benchmark hangs on the program's own hooks (the kernel's
// barrier poll, the sweep's progress log, the live client's loop): it runs
// one slice when the last one is pollInterval old. A caller that finds
// another goroutine inside a slice goes on without one.
func (h *hostRef) poll() {
	if !h.mu.TryLock() {
		return
	}
	if time.Since(h.last) >= pollInterval {
		h.slice()
	}
	h.mu.Unlock()
}

// bracket runs bracketRounds slices of each kernel.
func (h *hostRef) bracket() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < bracketRounds*kernels; i++ {
		h.slice()
	}
}

func (h *hostRef) snapshot() refTotals {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.totals
}

// hostReading is what the reference kernels measured between two snapshots:
// nanoseconds per step of each, and the host factor they make.
type hostReading struct {
	AluNs, SearchNs, Factor float64
}

func (from refTotals) reading(to refTotals) hostReading {
	perStep := func(k int) float64 {
		return (to.ns[k] - from.ns[k]) / (to.steps[k] - from.steps[k])
	}
	r := hostReading{AluNs: perStep(kernelALU), SearchNs: perStep(kernelSearch)}
	r.Factor = math.Pow(r.AluNs/aluNominalNs, aluWeight) * math.Pow(r.SearchNs/searchNominalNs, searchWeight)
	return r
}

// pollWriter is an io.Writer that polls the host reference on every write
// and keeps nothing: sweep.Options.Log with it turns the sweep's one line per
// finished job into a hook.
type pollWriter struct{}

func (pollWriter) Write(p []byte) (int, error) {
	host.poll()
	return len(p), nil
}
