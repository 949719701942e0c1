// Command nylon-sweep runs a scenario sweep: a declarative JSON spec (see
// internal/sweep) naming a scenario corpus, a seed set, and protocol
// variants expands into a deterministic job grid, executes across a worker
// pool with content-addressed result caching, and aggregates the recovery
// behavior of every (scenario, variant) cell into p10/p50/p90 quantile
// bands.
//
// Example — the committed corpus sweep:
//
//	nylon-sweep -spec examples/scenario-lab/sweep.json -out /tmp/lab
//
// The run directory holds one result file per job plus the aggregated
// artifacts (sweep.json, summary.csv, bands.csv); the text report goes to
// stdout. Runs are resumable: a killed sweep rerun with the same spec and
// flags skips every completed job, and a finished sweep re-aggregates
// without running anything. The artifact is a pure function of (spec,
// scenario files, seeds) — byte-identical however often the sweep was
// interrupted and for any -workers value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, cliutil.NotifyStop)) }

// run is the whole command. Once the flags have parsed it returns the exit
// status instead of exiting, so the ops endpoint's deferred Close runs on
// every path out. notifyStop arms the context that winds the sweep down.
func run(args []string, stdout, stderr io.Writer, notifyStop func(io.Writer, string) (context.Context, func() bool)) int {
	fs := flag.NewFlagSet("nylon-sweep", flag.ExitOnError)
	var (
		specPath = fs.String("spec", "", "sweep spec JSON file (required)")
		out      = fs.String("out", "", "run directory (default sweep-out/<spec name>)")
		workers  = fs.Int("workers", 0, "parallel jobs (0 = one per core; results are identical for any value)")
		seeds    = fs.Int("seeds", 0, "override the spec's seed count with seeds 1..N")
		n        = fs.Int("n", 0, "override the spec's base peer count")
		rounds   = fs.Int("rounds", 0, "override the spec's base round count")
		resume   = fs.Bool("resume", false, "require an existing run directory for this exact spec (fails on a hash mismatch instead of silently starting over)")
		verbose  = fs.Bool("v", false, "log each executed job with progress (done/total, jobs/s, ETA)")
		httpAddr = fs.String("http", "", "serve the live ops endpoint (/metrics, /debug/vars, /debug/pprof) on this address")
		ckEvery  = fs.Int("checkpoint-every", 0, "checkpoint every running job's world every N rounds into <run dir>/snapshots/; an interrupted sweep then resumes each unfinished job mid-run instead of from round zero (0 = off)")
	)
	fs.Parse(args) // exits 2 on a malformed command line, before anything is open
	exit := func(status int, err error) int {
		fmt.Fprintln(stderr, "nylon-sweep:", err)
		return status
	}
	fatal := func(err error) int { return exit(1, err) }
	// Zero keeps the spec's value (one job per core for -workers, no
	// checkpoints for -checkpoint-every); a negative count means nothing and
	// is refused, not dropped.
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"seeds", *seeds}, {"n", *n}, {"rounds", *rounds}, {"checkpoint-every", *ckEvery}} {
		if f.v < 0 {
			return exit(2, fmt.Errorf("-%s %d: must not be negative", f.name, f.v))
		}
	}
	if *specPath == "" {
		return fatal(fmt.Errorf("-spec sweep.json is required"))
	}

	spec, err := sweep.LoadSpec(*specPath)
	if err != nil {
		return fatal(err)
	}
	if *seeds > 0 {
		spec.Seeds, spec.SeedList = *seeds, nil
	}
	if *n > 0 {
		spec.Base.N = *n
	}
	if *rounds > 0 {
		spec.Base.Rounds = *rounds
	}

	grid, err := sweep.Expand(spec, filepath.Dir(*specPath))
	if err != nil {
		return fatal(err)
	}

	dir := *out
	if dir == "" {
		name := spec.Name
		if name == "" {
			name = "sweep"
		}
		dir = filepath.Join("sweep-out", name)
	}
	markerPath := filepath.Join(dir, "spec.hash")
	if *resume {
		prev, err := os.ReadFile(markerPath)
		if err != nil {
			return fatal(fmt.Errorf("-resume: no resumable run in %s (%w)", dir, err))
		}
		if string(prev) != grid.SpecHash {
			return fatal(fmt.Errorf("-resume: %s was produced by a different spec (hash %.12s…, want %.12s…)",
				dir, prev, grid.SpecHash))
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(markerPath, []byte(grid.SpecHash), 0o644); err != nil {
		return fatal(err)
	}

	// SIGINT/SIGTERM cancel the context Execute watches: dequeuing stops,
	// and with -checkpoint-every armed every in-flight job snapshots at its
	// next round barrier before exiting.
	ctx, _ := notifyStop(stderr, "nylon-sweep")
	opts := sweep.Options{Workers: *workers, Ctx: ctx, CheckpointEveryRounds: *ckEvery}
	if *verbose {
		opts.Log = stderr
	}
	if *httpAddr != "" {
		opts.Obs = obs.NewHub()
		srv, err := cliutil.ServeOps(stderr, *httpAddr, opts.Obs)
		if err != nil {
			return fatal(err)
		}
		defer srv.Close()
	}
	start := time.Now()
	results, stats, err := sweep.Execute(grid, dir, opts)
	if errors.Is(err, sweep.ErrStopped) {
		fmt.Fprintf(stderr, "nylon-sweep: stopped (%s); rerun the same command to resume\n", stats)
		return 130
	}
	if err != nil {
		return fatal(err)
	}
	wall := time.Since(start)

	art, err := sweep.Aggregate(grid, results)
	if err != nil {
		return fatal(err)
	}
	artJSON, err := art.JSON()
	if err != nil {
		return fatal(err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"sweep.json", artJSON},
		{"summary.csv", []byte(art.SummaryCSV())},
		{"bands.csv", []byte(art.BandsCSV())},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return fatal(err)
		}
	}

	fmt.Fprintf(stdout, "# sweep %q: %d scenarios × %d variants × %d seeds (spec %.12s…)\n",
		spec.Name, len(grid.Scenarios), len(spec.Variants), len(grid.Seeds), grid.SpecHash)
	fmt.Fprintf(stdout, "# %s in %v (%d workers) → %s\n\n", stats, wall.Round(time.Millisecond), stats.Workers, dir)
	fmt.Fprint(stdout, art.Text())
	return 0
}
