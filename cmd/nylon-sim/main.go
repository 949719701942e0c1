// Command nylon-sim runs one simulation and prints what the harness measured.
// It is the exploratory companion to nylon-figs.
//
// Without -f it runs a single point and prints every end-of-run metric — the
// paper's headline setting (10,000 peers, 90% natted), then the NAT-oblivious
// baseline:
//
//	nylon-sim -n 10000 -nat 90 -rounds 600 -protocol nylon
//	nylon-sim -n 10000 -nat 90 -rounds 600 -protocol generic -mix prc
//
// With -f the run is driven by a declarative environment scenario (JSON, see
// internal/scenario and the corpus under examples/scenario-lab/) and the
// report becomes a per-round health series plus a recovery summary:
//
//	nylon-sim -f examples/scenario-lab/storm.json -n 1000 -rounds 120
//
// The series is tab-separated (round, alive, cluster%, stale%, cumulative
// joins/leaves) so it pipes straight into cut/awk/gnuplot. With a Byzantine
// cohort — from the file's "adversaries" block or the -adversary flags — the
// series gains eclipse%/colluder% columns and the summary an attack block
// (see internal/adversary and DESIGN.md §8). Runs are seed-deterministic: the
// same (flags, scenario file, seed) always produce the same output.
//
// Long runs survive crashes and interruptions: -checkpoint DIR snapshots the
// complete world state into DIR (every -checkpoint-every rounds, and at the
// next round barrier after SIGINT/SIGTERM), and -resume FILE continues a run
// from such a snapshot, bit-identical to never having stopped, with the
// report the snapshot's run had. Pass -f together with -resume to branch: the
// restored world replays under the new scenario from the resume round on
// ("what if the adversary fraction doubled at round 400?"):
//
//	nylon-sim -f storm.json -rounds 600 -checkpoint /tmp/ck -checkpoint-every 100
//	nylon-sim -resume /tmp/ck/round-00000400.snap
//	nylon-sim -resume /tmp/ck/round-00000400.snap -f storm-worse.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/view"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, cliutil.NotifyStop)) }

// run is the whole command. Once the flags have parsed it returns the exit
// status instead of exiting, so the profile, endpoint and progress defers run
// on every path out. notifyStop arms the graceful-shutdown predicate of a
// checkpointing run.
func run(args []string, stdout, stderr io.Writer, notifyStop func(io.Writer, string) (context.Context, func() bool)) int {
	fs := flag.NewFlagSet("nylon-sim", flag.ExitOnError)
	var (
		// The experiment: what is simulated. A snapshot carries all of it.
		n         = fs.Int("n", 1000, "number of peers")
		natPct    = fs.Float64("nat", 80, "percentage of natted peers")
		viewSize  = fs.Int("view", 15, "view size")
		rounds    = fs.Int("rounds", 300, "shuffling rounds")
		seed      = fs.Int64("seed", 1, "random seed")
		protocol  = fs.String("protocol", "nylon", "protocol: nylon, generic, arrg, static-rvp")
		selection = fs.String("selection", "rand", "target selection: rand, tail")
		merge     = fs.String("merge", "healer", "view merge: blind, healer, swapper")
		push      = fs.Bool("push", false, "push-only propagation (default push/pull)")
		mix       = fs.String("mix", "paper", "NAT mix: paper (50/40/10 rc/prc/sym) or prc")
		churnAt   = fs.Int("churn-at", 0, "round at which churn strikes (0 = none)")
		churnPct  = fs.Float64("churn", 0, "percentage of peers departing at churn-at")

		// The scenario: the environment timeline, and the series report.
		file    = fs.String("f", "", "scenario JSON file: run under it and report the per-round health series and recovery summary; with -resume, branch onto it from the resume round")
		every   = fs.Int("every", 0, "with -f, sample the health series every N rounds (0 = rounds/20)")
		adv     = fs.String("adversary", "", "with -f, inject an adversary cohort: poison-view, lying-rvp, selective-drop, free-ride")
		advPct  = fs.Float64("adversary-pct", 20, "percentage of peers assigned to the -adversary cohort")
		advFrom = fs.Int("adversary-from", 0, "round at which the -adversary cohort activates")

		// Execution shape: results are identical for any value.
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (results are identical for any value)")
		shards  = fs.Int("shards", 0, "simulation shards (0 = default; results are identical for any value)")

		traceOn  = fs.Bool("trace", false, "record network events (sends, deliveries, drops) in per-shard rings; tracing never perturbs the run")
		traceOut = fs.String("trace-out", "", "write the merged trace to this file as JSON lines (implies -trace; inspect with nylon-trace)")
		traceCap = fs.Int("trace-cap", 4096, "trace ring capacity: keep the last N events per shard")

		httpAddr  = fs.String("http", "", "serve the live ops endpoint (/metrics, /debug/vars, /debug/pprof) on this address, e.g. :8080")
		metrics   = fs.Bool("metrics", false, "print the kernel phase-timing and overlay-health table at the end of the run")
		metricsJS = fs.String("metrics-json", "", "write the full metrics document (registry, kernel, health) to this file as JSON")
		progress  = fs.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 10s; 0 = off)")
		memProf   = fs.String("memprofile", "", "write an allocation profile of the run to this file (pprof format)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")

		flightDir     = fs.String("flight", "", "arm the flight recorder: write a forensic bundle (trace tail, health, kernel timing, drops) to this directory when a trigger fires")
		flightStall   = fs.Int("flight-stall", 0, "recovery-stall trigger: fire after N consecutive samples below -flight-stall-below (0 = default 10 when -flight is set and no other trigger is armed)")
		flightStallLo = fs.Float64("flight-stall-below", 0.95, "cluster fraction below which a sample counts as stalled")
		flightEclipse = fs.Float64("flight-eclipse", 0, "eclipse trigger: fire when the eclipsed honest fraction reaches this (0 = off)")
		flightCluster = fs.Float64("flight-cluster", 0, "collapse trigger: fire when the biggest-cluster fraction drops below this (0 = off)")
		flightLeak    = fs.Bool("flight-leak", false, "pool-leak trigger: run the wire message-pool leak check at every sample and fire on imbalance")

		ckDir   = fs.String("checkpoint", "", "write crash-survivable world snapshots into this directory; SIGINT/SIGTERM checkpoints at the next round barrier and exits")
		ckEvery = fs.Int("checkpoint-every", 0, "with -checkpoint, also snapshot every N rounds (0 = only on signal)")
		resume  = fs.String("resume", "", "resume from this snapshot file; the snapshot fixes the experiment parameters, so only -f (to branch), execution-shape, checkpoint and observability flags may be combined with it")
	)
	fs.Parse(args) // exits 2 on a malformed command line, before anything is open
	exit := func(status int, err error) int {
		fmt.Fprintln(stderr, "nylon-sim:", err)
		return status
	}
	fatal := func(err error) int { return exit(1, err) }
	switch {
	case *resume != "":
		if f := cliutil.FirstSet(fs,
			"n", "nat", "view", "rounds", "seed", "protocol", "selection", "merge",
			"push", "mix", "churn-at", "churn", "every",
			"trace", "trace-out", "trace-cap",
			"flight", "flight-stall", "flight-stall-below", "flight-eclipse", "flight-cluster", "flight-leak"); f != "" {
			return exit(2, fmt.Errorf("-%s cannot be combined with -resume: the snapshot fixes the experiment parameters", f))
		}
		if *adv != "" && *file == "" {
			return fatal(fmt.Errorf("-adversary with -resume needs -f: flag cohorts stack onto the branch scenario"))
		}
	case *file == "":
		if f := cliutil.FirstSet(fs, "every", "adversary", "adversary-pct", "adversary-from"); f != "" {
			return exit(2, fmt.Errorf("-%s needs -f scenario.json: it shapes the scenario run and its series report", f))
		}
	}
	// A flag that tunes another flag's feature does nothing without it, and
	// a size of zero would be replaced by the library's default: both are
	// refused rather than ignored.
	for _, dep := range []struct {
		needs string
		armed bool
		flags []string
	}{
		{"-trace or -trace-out", *traceOn || *traceOut != "", []string{"trace-cap"}},
		{"-checkpoint or -resume", *ckDir != "" || *resume != "", []string{"checkpoint-every"}},
		{"-flight", *flightDir != "", []string{"flight-stall", "flight-stall-below", "flight-eclipse", "flight-cluster", "flight-leak"}},
		{"-adversary", *adv != "", []string{"adversary-pct", "adversary-from"}},
	} {
		if f := cliutil.FirstSet(fs, dep.flags...); f != "" && !dep.armed {
			return exit(2, fmt.Errorf("-%s needs %s", f, dep.needs))
		}
	}
	for _, c := range []struct {
		flag   string
		v, min int
	}{{"n", *n, 1}, {"rounds", *rounds, 1}, {"view", *viewSize, 1}, {"trace-cap", *traceCap, 1}, {"every", *every, 0}} {
		if c.v < c.min {
			return exit(2, fmt.Errorf("-%s %d: must be at least %d", c.flag, c.v, c.min))
		}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	var sc *scenario.Scenario
	if *file != "" {
		if sc, err = scenario.Load(*file); err != nil {
			return fatal(err)
		}
		if *adv != "" {
			// Flag-injected cohorts stack on top of whatever the file declares.
			sc.Adversaries = append(sc.Adversaries, scenario.Adversary{
				Strategy:  *adv,
				Fraction:  *advPct / 100,
				FromRound: *advFrom,
			})
		}
	}

	var hub *obs.Hub
	if *httpAddr != "" || *metrics || *metricsJS != "" || *progress > 0 {
		hub = obs.NewHub()
	}
	if *httpAddr != "" {
		srv, err := cliutil.ServeOps(stderr, *httpAddr, hub)
		if err != nil {
			return fatal(err)
		}
		defer srv.Close()
	}
	if *progress > 0 {
		stop := obs.StartProgress(stderr, hub, *progress)
		defer stop()
	}

	// A resumed run keeps checkpointing into its snapshot's directory unless
	// -checkpoint redirects it; a signal always checkpoints when a directory
	// is armed.
	ckInto := *ckDir
	if ckInto == "" && *resume != "" {
		ckInto = filepath.Dir(*resume)
	}
	var spec *exp.CheckpointSpec
	if ckInto != "" {
		_, stop := notifyStop(stderr, "nylon-sim")
		spec = &exp.CheckpointSpec{Dir: ckInto, EveryRounds: *ckEvery, Stop: stop}
	}

	start := time.Now()
	var res exp.Result
	if *resume != "" {
		res, err = exp.ResumeFile(*resume, exp.ResumeOptions{
			Workers:    *workers,
			Shards:     *shards,
			Scenario:   sc, // nil: continue the snapshot's scenario; non-nil: branch
			Checkpoint: spec,
			Obs:        hub,
		})
	} else {
		cfg := exp.Config{
			N:             *n,
			ViewSize:      *viewSize,
			NATRatio:      *natPct / 100,
			Rounds:        *rounds,
			Seed:          *seed,
			PushPull:      !*push,
			ChurnAtRound:  *churnAt,
			ChurnFraction: *churnPct / 100,
			Scenario:      sc,
			Workers:       *workers,
			Shards:        *shards,
			Obs:           hub,
			Checkpoint:    spec,
		}
		if sc != nil {
			cfg.SampleEveryRounds = *every
			if cfg.SampleEveryRounds <= 0 {
				cfg.SampleEveryRounds = max(*rounds/20, 1)
			}
		}
		if *traceOn || *traceOut != "" {
			cfg.TraceCapacity = *traceCap
		}
		if *flightDir != "" {
			trig := obs.Triggers{
				StallRounds:  *flightStall,
				StallBelow:   *flightStallLo,
				EclipseAbove: *flightEclipse,
				ClusterBelow: *flightCluster,
				LeakCheck:    *flightLeak,
			}
			if trig.Zero() {
				// An armed recorder with nothing to watch would never fire;
				// default to the stall trigger, the broadest anomaly.
				trig.StallRounds = 10
			}
			cfg.Flight = &obs.FlightSpec{Dir: *flightDir, Triggers: trig}
		}
		if cfg.Protocol, err = exp.ParseProtocol(*protocol); err != nil {
			return fatal(err)
		}
		if cfg.Selection, err = view.ParseSelection(*selection); err != nil {
			return fatal(err)
		}
		if cfg.Merge, err = view.ParseMerge(*merge); err != nil {
			return fatal(err)
		}
		switch *mix {
		case "paper":
			cfg.Mix = exp.DefaultMix
		case "prc":
			cfg.Mix = exp.NATMix{PRC: 1}
		default:
			return fatal(fmt.Errorf("unknown mix %q", *mix))
		}
		res, err = exp.Run(cfg)
	}
	var ie *exp.InterruptedError
	if errors.As(err, &ie) {
		fmt.Fprintf(stderr, "nylon-sim: interrupted at round %d\n", ie.Round)
		fmt.Fprintf(stderr, "nylon-sim: resume with: nylon-sim -resume %s\n", ie.Path)
		return 130
	}
	if err != nil {
		return fatal(err)
	}
	wall := time.Since(start)

	// The run's own config picks the report: on resume it is the snapshot's
	// (or the branch's), not this process's flags.
	series := res.Cfg.Scenario != nil
	if series {
		name := res.Cfg.Scenario.Name
		if name == "" {
			name = *file
		}
		if name == "" {
			name = *resume
		}
		printSeries(stdout, name, res)
	} else {
		printPoint(stdout, res)
	}
	fmt.Fprintf(stdout, "throughput          %s\n", res.ThroughputLine(wall))
	if *metrics {
		fmt.Fprint(stdout, obs.KernelTable(hub))
	}
	if *metricsJS != "" {
		if err := writeFile(*metricsJS, func(w io.Writer) error { return obs.WriteMetricsJSON(w, hub) }); err != nil {
			return fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.WriteJSONL(w, res.Trace) }); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stderr, "trace: %d events written to %s (inspect with nylon-trace)\n", len(res.Trace), *traceOut)
	} else if res.TraceDump != "" && !series {
		fmt.Fprintf(stdout, "--- last %d network events ---\n%s", len(res.Trace), res.TraceDump)
	}
	for _, b := range res.Bundles {
		fmt.Fprintf(stdout, "flight bundle       %s\n", b)
	}
	if *memProf != "" {
		// One final collection so the profile reflects the run's
		// allocations, not a mid-GC snapshot.
		runtime.GC()
		if err := writeFile(*memProf, func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "allocation profile      %s (inspect: go tool pprof -top -alloc_space %s)\n", *memProf, *memProf)
	}
	return 0
}

// writeFile creates path, fills it through write and closes it, reporting the
// first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printPoint is the report of a scenario-less run: every end-of-run metric.
func printPoint(w io.Writer, res exp.Result) {
	rc := res.Cfg
	fmt.Fprintf(w, "protocol            %v (%v, %v, push/pull=%v)\n", rc.Protocol, rc.Selection, rc.Merge, rc.PushPull)
	fmt.Fprintf(w, "peers               %d (%.0f%% natted), view %d, %d rounds, seed %d\n",
		rc.N, rc.NATRatio*100, rc.ViewSize, rc.Rounds, rc.Seed)
	fmt.Fprintf(w, "biggest cluster     %.1f%%\n", res.BiggestCluster*100)
	fmt.Fprintf(w, "stale references    %.1f%%\n", res.StaleFraction*100)
	fmt.Fprintf(w, "natted non-stale    %.1f%% (population share %.1f%%)\n", res.NattedNonStale*100, rc.NATRatio*100)
	fmt.Fprintf(w, "bytes/s per peer    %.0f (public %.0f, natted %.0f)\n", res.BytesPerSecAll, res.BytesPerSecPublic, res.BytesPerSecNatted)
	fmt.Fprintf(w, "avg RVP chain       %.2f\n", res.AvgChainLen)
	fmt.Fprintf(w, "shuffle completion  %.1f%% (no-route %.1f%%)\n", res.CompletionRate*100, res.NoRouteRate*100)
	fmt.Fprintf(w, "chi2/dof (stream)   %.2f (uniform at 1%%: %v)\n", res.ChiSquareStat, res.ChiSquareOK)
	fmt.Fprintf(w, "in-degree           mean %.1f, sd %.1f, p50 %d, p99 %d\n",
		res.InDegree.Mean, res.InDegree.StdDev, res.InDegree.P50, res.InDegree.P99)
	fmt.Fprintf(w, "alive peers         %d\n", res.AlivePeers)
	fmt.Fprintf(w, "network drops       nat-filtered %d, no-addr %d, dead %d\n",
		res.Drops.NATFiltered, res.Drops.NoSuchAddr, res.Drops.DeadPeer)
}

// printSeries is the report of a scenario run: the sampled health series,
// then the recovery summary (and the attack block of a hostile scenario).
func printSeries(w io.Writer, name string, res exp.Result) {
	rc := res.Cfg
	sc := rc.Scenario
	fmt.Fprintf(w, "# scenario %q: ", name)
	if c := sc.Churn; c != nil {
		fmt.Fprintf(w, "churn λjoin=%.3g λleave=%.3g; ", c.JoinsPerRound, c.LeavesPerRound)
	}
	if l := sc.Link; l != nil {
		fmt.Fprintf(w, "link jitter≤%dms loss=%.3g; ", l.JitterMs, l.Loss)
	}
	fmt.Fprintf(w, "%d events\n", len(sc.Events))
	fmt.Fprintf(w, "# %s, %d peers (%.0f%% natted), view %d, %d rounds, seed %d\n",
		rc.Protocol, rc.N, rc.NATRatio*100, rc.ViewSize, rc.Rounds, rc.Seed)
	hostile := len(sc.Adversaries) > 0
	if hostile {
		fmt.Fprintln(w, "round\talive\tcluster%\tstale%\tjoins\tleaves\teclipse%\tcolluder%")
	} else {
		fmt.Fprintln(w, "round\talive\tcluster%\tstale%\tjoins\tleaves")
	}
	for _, pt := range res.Series {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.1f\t%d\t%d",
			pt.Round, pt.AlivePeers, pt.BiggestCluster*100, pt.StaleFraction*100, pt.Joins, pt.Leaves)
		if hostile {
			fmt.Fprintf(w, "\t%.1f\t%.1f", pt.Eclipse*100, pt.ColluderShare*100)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nfinal cluster       %.1f%% of %d alive (%d total peers)\n",
		res.BiggestCluster*100, res.AlivePeers, res.TotalPeers)
	fmt.Fprintf(w, "stale references    %.1f%%\n", res.StaleFraction*100)
	fmt.Fprintf(w, "worst cluster       %.1f%% at round %d\n", res.Recovery.WorstCluster*100, res.Recovery.WorstRound)
	switch {
	case res.Recovery.RecoveredRound < 0:
		fmt.Fprintf(w, "recovered           never (threshold %.0f%%)\n", exp.RecoveryThreshold*100)
	case res.Recovery.RecoveredRound > res.Recovery.WorstRound:
		fmt.Fprintf(w, "recovered           round %d (%d rounds after the worst point)\n",
			res.Recovery.RecoveredRound, res.Recovery.RecoveredRound-res.Recovery.WorstRound)
	default:
		fmt.Fprintf(w, "recovered           never disrupted below %.0f%%\n", exp.RecoveryThreshold*100)
	}
	fmt.Fprintf(w, "scenario churn      %d joins, %d leaves, %d gateway groups failed, %d partitioned rounds\n",
		res.Scenario.Joins, res.Scenario.Leaves, res.Scenario.GatewayFailures, res.Scenario.PartitionRounds)
	fmt.Fprintf(w, "network drops       nat-filtered %d, no-addr %d, dead %d, link-lost %d, partitioned %d\n",
		res.Drops.NATFiltered, res.Drops.NoSuchAddr, res.Drops.DeadPeer, res.Drops.LinkLost, res.Drops.Partitioned)
	fmt.Fprintf(w, "bytes/s per peer    %.0f (public %.0f, natted %.0f)\n",
		res.BytesPerSecAll, res.BytesPerSecPublic, res.BytesPerSecNatted)
	fmt.Fprintf(w, "shuffle completion  %.1f%%\n", res.CompletionRate*100)
	if hostile {
		a := res.Adversary
		fmt.Fprintf(w, "adversaries         %d assigned (%d colluders)\n", a.AdversaryCount, a.ColluderCount)
		fmt.Fprintf(w, "eclipse             %.1f%% of honest peers fully eclipsed, %.1f%% see ≥1 colluder\n",
			a.EclipseFraction*100, a.ColluderViewFraction*100)
		fmt.Fprintf(w, "indegree capture    colluders hold %.1f%% of honest references (top-%d hubs hold %.1f%%)\n",
			a.ColluderIndegreeShare*100, max(a.ColluderCount, 1), a.TopKIndegreeShare*100)
		fmt.Fprintf(w, "honest subgraph     %.1f%% biggest cluster with adversarial peers discounted\n",
			a.HonestCluster*100)
		fmt.Fprintf(w, "hostile drops       relay-denied %d, selective %d, hop-limit %d\n",
			a.RelayDenied, a.AdversaryDrops, a.HopLimitDrops)
	}
}
