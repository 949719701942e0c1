package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/probes"
)

// env is what one workload run gets from the command line.
type env struct {
	seed    int64
	seconds float64 // measuring time of the untraced pass
	repeats int     // fixed repeat count; 0 measures for seconds
	tmp     string  // scratch directory, removed on exit
	outDir  string  // where result and span files go
}

// Three repeats and three set-ups are the least with a middle. When the host
// is so slow that three repeats take more than twice the measuring time, two
// have to do: the driver's budget for all its runs is fixed.
const (
	minRepeats   = 3
	setupRepeats = 3
)

// sample is what one repeat of a workload measured.
type sample struct {
	usage            // the measured part of the repeat
	events    uint64 // units of work done (metrics.go binds "event" per workload)
	peers     int    // population alloc_bytes_per_peer divides by
	attempted int    // operations attempted
	failures  []string
	digest    string // sha256 of the repeat's deterministic output
	// extra holds what the repeat measured beyond the common metrics, by
	// catalogue name: workload-specific end-to-end metrics and, on a traced
	// repeat, per-layer values.
	extra map[string]float64
}

// instance is one set-up workload: fixtures built, ready to repeat.
type instance interface {
	// repeat runs the workload once. With a recorder it opens its spans
	// under parent.
	repeat(spans *spanRecorder, parent int) sample
	// traced runs the workload-specific part of the traced pass and adds its
	// per-layer metrics to the report.
	traced(e *env, spans *spanRecorder, root int, rep *workloadReport)
	// close releases sockets and files.
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name string
	why  string
	// procs overrides GOMAXPROCS for the workload's process; 0 keeps the
	// benchmark's default of min(nproc, 2).
	procs int
	setup func(e *env) (instance, error)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// newEnv creates the run's scratch directory under the working directory:
// the benchmark reads and writes only inside its checkout.
func newEnv(seed int64, seconds float64, repeats int, outDir string) (*env, error) {
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(tmp)
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, repeats: repeats, tmp: abs, outDir: outDir}, nil
}

func (e *env) cleanup() {
	os.RemoveAll(e.tmp)
	os.Remove(".bench_tmp") // succeeds only when no other run is using it
}

// setUp builds the workload setupRepeats times and keeps the last instance:
// setup_s is a median like every other time.
func setUp(w workloadDef, e *env) (instance, []float64, error) {
	var inst instance
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		m := startMeter()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		u := m.stop()
		secs = append(secs, u.ref(u.Wall))
	}
	return inst, secs, nil
}

// runUntraced measures the end-to-end metrics of one workload: recording
// off, the program's own Obs, tracing and flight recorder off.
func runUntraced(w workloadDef, e *env) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name, Seed: e.seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	inst, setupSecs, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	var samples []sample
	begin := time.Now()
	for {
		if e.repeats > 0 && len(samples) >= e.repeats {
			break
		}
		if elapsed := time.Since(begin).Seconds(); e.repeats == 0 &&
			(len(samples) >= minRepeats && elapsed >= e.seconds || len(samples) == minRepeats-1 && elapsed >= 2*e.seconds) {
			break
		}
		runtime.GC() // every repeat starts from a collected heap
		samples = append(samples, inst.repeat(nil, -1))
	}
	rep.Repeats = len(samples)
	collect(rep, samples)
	rep.add("setup_s", setupSecs...)
	// The reference table is touched end to end, so all of it is resident:
	// what is left is the program's and the workload's own.
	rep.add("peak_rss_mib", peakRSSMiB()-host.residentMiB())
	return rep, nil
}

// collect folds the repeats into the report: per-repeat values of the common
// metrics and of whatever workload-specific ones the samples carry, the
// operation counts, and the digest every repeat must agree on.
func collect(rep *workloadReport, samples []sample) {
	var wall, eps, cpu, alloc, factor, raw, aluNs, searchNs []float64
	extra := map[string][]float64{}
	for i, s := range samples {
		rep.Attempted += s.attempted
		for _, f := range s.failures {
			rep.fail("repeat %d: %s", i, f)
		}
		if i == 0 {
			rep.Digest = s.digest
		} else if s.digest != rep.Digest {
			rep.fail("repeat %d: digest %s differs from repeat 0's %s", i, s.digest, rep.Digest)
		}
		// Every time is reference time: the measured time over the host
		// factor of the repeat it was measured in (hostref.go).
		wall = append(wall, s.ref(s.Wall))
		eps = append(eps, float64(s.events)/s.ref(s.Wall))
		cpu = append(cpu, 1e6*s.ref(s.CPU)/float64(s.events))
		alloc = append(alloc, float64(s.Alloc)/float64(s.peers))
		factor = append(factor, s.Host)
		raw = append(raw, s.Wall.Seconds())
		aluNs = append(aluNs, s.Kernels.AluNs)
		searchNs = append(searchNs, s.Kernels.SearchNs)
		for k, v := range s.extra {
			extra[k] = append(extra[k], v)
		}
	}
	rep.add("run_wall_s", wall...)
	rep.add("events_per_s", eps...)
	rep.add("cpu_us_per_event", cpu...)
	rep.add("alloc_bytes_per_peer", alloc...)
	rep.add("host.factor", factor...)
	rep.add("host.run_wall_raw_s", raw...)
	if aluNs[0] > 0 {
		rep.add("host.alu_ns", aluNs...)
		rep.add("host.search_ns", searchNs...)
	}
	for _, spec := range nativeMetrics {
		if vs, ok := extra[spec.Name]; ok {
			rep.add(spec.Name, vs...)
		}
	}
}

// tracedRepeat runs one repeat under a span and folds everything it measured
// into the traced report.
func tracedRepeat(repeat func(*spanRecorder, int) sample, spans *spanRecorder, root int, rep *workloadReport) sample {
	runtime.GC()
	id := spans.begin("repeat", root)
	s := repeat(spans, id)
	spans.end(id)
	rep.Repeats++
	rep.Attempted += s.attempted
	for _, f := range s.failures {
		rep.fail("%s", f)
	}
	rep.Digest = s.digest
	rep.add("host.factor", s.Host)
	rep.add("host.run_wall_raw_s", s.Wall.Seconds())
	for _, spec := range perLayerSpecs() {
		if v, ok := s.extra[spec.Name]; ok {
			rep.add(spec.Name, v)
		}
	}
	return s
}

// runTraced is the second pass: span recording on, one repeat under the
// program's own probes, every layer probe, and the interaction model. Its
// timings never feed the end-to-end metrics.
func runTraced(w workloadDef, e *env) (*workloadReport, error) {
	rep := &workloadReport{Workload: w.name, Seed: e.seed, Traced: true, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	spans := newSpanRecorder(w.name)
	root := spans.begin("workload "+w.name, -1)

	setupSpan := spans.begin("setup", root)
	inst, err := w.setup(e)
	spans.end(setupSpan)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()

	inst.traced(e, spans, root, rep)

	probeSpan := spans.begin("layer probes", root)
	layers, err := probes.Run("all")
	spans.end(probeSpan)
	if err != nil {
		return nil, err
	}
	for _, m := range layers {
		rep.add(m.Name, m.Value)
	}
	printModel(os.Stdout, w.name, rep)
	spans.end(root)

	rep.SpanFile = filepath.Join(e.outDir, w.name+".trace.json")
	if err := spans.write(rep.SpanFile); err != nil {
		return nil, err
	}
	if rep.Attempted == 0 {
		rep.Attempted = 1
	}
	return rep, nil
}
