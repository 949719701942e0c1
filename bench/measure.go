package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter measures one timed section: wall clock, process CPU (user+sys of all
// threads, so spinning workers show), bytes allocated (the monotone
// TotalAlloc counter, which GC cannot hide) and the host factor of the
// section (hostref.go). Slices of the host reference open and close the
// section outside the timed part; the ones a program hook takes inside it are
// taken out of the wall and CPU time again.
type meter struct {
	start   time.Time
	cpu     time.Duration
	alloc   uint64
	refOpen refTotals // before the opening bracket
	refIn   refTotals // after it: the timed part starts here
}

// usage is what a metered section cost.
type usage struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64
	// Host is the host factor while the section ran: how many times slower
	// than nominal the reference kernels were. Zero when nothing was metered.
	Host float64
	// Kernels is the reading Host was made from; a joined section has none.
	Kernels hostReading
}

func startMeter() meter {
	m := meter{refOpen: host.snapshot()}
	host.bracket()
	m.refIn = host.snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cpu, m.alloc, m.start = processCPU(), ms.TotalAlloc, time.Now()
	return m
}

func (m meter) stop() usage {
	wall := time.Since(m.start)
	cpu := processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	inside := host.snapshot().spent - m.refIn.spent
	host.bracket()
	r := m.refOpen.reading(host.snapshot())
	return usage{Wall: wall - inside, CPU: cpu - inside, Alloc: ms.TotalAlloc - m.alloc, Host: r.Factor, Kernels: r}
}

// add joins two sections. The host factor of the whole is the one that keeps
// reference time additive: the sum's wall over its factor is the parts' wall
// over theirs, added.
func (u usage) add(v usage) usage {
	sum := usage{Wall: u.Wall + v.Wall, CPU: u.CPU + v.CPU, Alloc: u.Alloc + v.Alloc}
	if ref := u.ref(u.Wall) + v.ref(v.Wall); ref > 0 {
		sum.Host = sum.Wall.Seconds() / ref
	}
	return sum
}

// ref converts a time measured inside the section to reference time.
func (u usage) ref(d time.Duration) float64 { return d.Seconds() / u.Host }

// processCPU returns the user+system CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method), so
// the spreads this benchmark prints are the ones its driver computes. Fewer
// than two values have no spread: all three are the value itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
