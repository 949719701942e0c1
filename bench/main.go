// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the simulator or of nylon.Node sees, and a
// traced pass that adds per-layer probes. See README.md beside this file and
// BENCHMARK.json at the repository root.
//
//	go run -C bench .                        # every workload, one child process each
//	go run -C bench . -trace 1               # ... then the traced pass
//	go run -C bench . -workload sim-storm-1k # one workload, in this process
//	go run -C bench . -probe rt              # one layer's probes
//	go run -C bench . -compare a.json b.json # apply the bounds to two result files
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"

	"repro/bench/probes"
)

// defaultSeconds is how long one workload measures unless -seconds says
// otherwise; BENCHMARK.json's run_seconds is this value.
const defaultSeconds = 12

// workloads lists every workload in the order a full run executes them.
var workloads = append(append([]workloadDef{}, simDefs...), sweepDef, snapshotDef, liveDef)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run in this process, or all: every workload in its own child process")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time per workload (at least 3 repeats run regardless)")
		repeats  = flag.Int("repeats", 0, "fixed number of repeats per workload instead of -seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced pass: span recording, the program's own probes, layer probes, interaction model")
		outDir   = flag.String("out", ".bench_out", "directory for result files and span files")
		probe    = flag.String("probe", "", "run only the probes of one layer (or all) and exit")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: exit 1 on a regression")
	)
	flag.Parse()

	// Two procs on any machine with at least two: the numbers of
	// sim-parallel-10k mean workers 2, not "whatever the host has".
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files, got %d arguments", flag.NArg()))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *probe != "":
		results, err := probes.Run(*probe)
		if err != nil {
			fatal(err)
		}
		for _, m := range results {
			fmt.Printf("%-34s %16s %s\n", m.Name, num(m.Value), m.Unit)
		}
	case *workload == "all":
		if err := runAll(*seed, *seconds, *repeats, *trace == 1, *outDir); err != nil {
			fatal(err)
		}
	default:
		if err := runOne(*workload, *seed, *seconds, *repeats, *trace == 1, *outDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process, writes its result file and
// prints, as the last line, the object the benchmark driver reads.
func runOne(name string, seed int64, seconds float64, repeats int, traced bool, outDir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	e, err := newEnv(seed, seconds, repeats, outDir)
	if err != nil {
		return err
	}
	defer e.cleanup()
	if host, err = newHostRef(); err != nil {
		return err
	}

	var rep *workloadReport
	want := commonMetrics
	if traced {
		rep, err = runTraced(w, e)
		want = perLayerSpecs()
	} else {
		rep, err = runUntraced(w, e)
	}
	if err != nil {
		return err
	}
	rep.printTable(os.Stdout)
	d := &doc{Schema: schemaVersion, Machine: machine(), Seed: seed, Workloads: []*workloadReport{rep}}
	if err := writeDoc(resultPath(outDir, name, traced), d); err != nil {
		return err
	}
	fmt.Println(rep.contractLine(want))
	return nil
}

func resultPath(outDir, workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, workload+".traced.json")
	}
	return filepath.Join(outDir, workload+".json")
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runAll runs every workload in its own fresh child process, one after the
// other, so peak RSS and GC state never leak from one workload into the next,
// and gathers the children's result files into bench.json.
func runAll(seed int64, seconds float64, repeats int, traced bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := &doc{Schema: schemaVersion, Machine: machine(), Seed: seed}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	for _, pass := range passes {
		for _, w := range workloads {
			traceArg := "0"
			if pass {
				traceArg = "1"
			}
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-repeats", fmt.Sprint(repeats), "-trace", traceArg, "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			d, err := readDoc(resultPath(outDir, w.name, pass))
			if err != nil {
				return err
			}
			all.Workloads = append(all.Workloads, d.Workloads...)
		}
	}
	crossCheck(all)
	printSummary(os.Stdout, all)
	path := filepath.Join(outDir, "bench.json")
	if err := writeDoc(path, all); err != nil {
		return err
	}
	fmt.Printf("\nresult file: %s\n", path)
	for _, r := range all.Workloads {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// crossCheck holds sim-parallel-10k to sim-steady-10k's result: the same
// configuration and seed must give the same digest at any worker count.
func crossCheck(d *doc) {
	var steady, parallel *workloadReport
	for _, r := range d.Workloads {
		if r.Traced {
			continue
		}
		switch r.Workload {
		case wlSteady:
			steady = r
		case wlParallel:
			parallel = r
		}
	}
	if steady == nil || parallel == nil {
		return
	}
	parallel.Attempted++
	if steady.Digest != parallel.Digest {
		parallel.fail("digest %s differs from %s's %s", parallel.Digest, wlSteady, steady.Digest)
	}
	se, _ := steady.metric("events_per_s")
	pe, _ := parallel.metric("events_per_s")
	parallel.note("speedup_over_workers_1", "%.3fx (%.0f events/s at workers 2 over %.0f at workers 1)", pe.Median/se.Median, pe.Median, se.Median)
}

// printSummary prints every end-to-end metric of every workload by name.
func printSummary(w *os.File, d *doc) {
	m := d.Machine
	fmt.Fprintf(w, "\n# %s, %d CPUs, %s, GOMAXPROCS %d, commit %s, seed %d\n", m.CPUModel, m.NProc, m.GoVersion, m.GOMAXPROCS, m.Commit, d.Seed)
	for _, r := range d.Workloads {
		if !r.Traced {
			r.printTable(w)
		}
	}
	var traced []string
	for _, r := range d.Workloads {
		if r.Traced {
			traced = append(traced, r.SpanFile)
		}
	}
	sort.Strings(traced)
	for _, f := range traced {
		fmt.Fprintf(w, "span file: %s\n", f)
	}
}
