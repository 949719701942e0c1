// Command nylon-figs regenerates every table and figure of the paper's
// evaluation (Figures 2-4, 7-10, the §5 correctness checks) plus the
// ablations documented in DESIGN.md.
//
// Laptop-scale defaults finish in minutes; pass -n 10000 -rounds 2000
// -seeds 30 to match the paper's setup exactly (hours of CPU).
//
// Usage:
//
//	nylon-figs                 # all figures, default scale
//	nylon-figs -fig 9          # just Figure 9
//	nylon-figs -fig 2 -csv     # CSV instead of aligned text
//	nylon-figs -n 10000 -rounds 2000 -seeds 30 -fig 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. Once the flags have parsed it returns the exit
// status instead of exiting, so the ops endpoint closes on every path out.
func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, f := range exp.Figures {
		ids = append(ids, f.ID)
	}
	fs := flag.NewFlagSet("nylon-figs", flag.ExitOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: "+strings.Join(ids, ", ")+" or 'all'")
		n       = fs.Int("n", 600, "number of peers (paper: 10000)")
		rounds  = fs.Int("rounds", 210, "shuffling rounds to simulate (paper: ~2000 for churn)")
		seeds   = fs.Int("seeds", 3, "number of seeds to average (paper: 30)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned text")
		workers = fs.Int("workers", 0, "parallel simulation runs (0 = one per core; results are identical for any value)")
		http    = fs.String("http", "", "serve the live ops endpoint (/debug/pprof for profiling long figure runs) on this address")
	)
	fs.Parse(args) // exits 2 on a malformed command line, before anything is open
	exit := func(status int, err error) int {
		fmt.Fprintln(stderr, "nylon-figs:", err)
		return status
	}
	figs := exp.Figures
	if *fig != "all" {
		figs = nil
		for _, f := range exp.Figures {
			if f.ID == *fig {
				figs = []exp.Figure{f}
			}
		}
		if figs == nil {
			return exit(2, fmt.Errorf("unknown figure %q (have %s)", *fig, strings.Join(ids, ", ")))
		}
	}
	// Zero would be replaced by the figure runner's default size.
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"rounds", *rounds}} {
		if f.v < 1 {
			return exit(2, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v))
		}
	}
	if *seeds < 1 || *seeds > exp.MaxSeeds {
		return exit(2, fmt.Errorf("-seeds %d: need 1 to %d seeds", *seeds, exp.MaxSeeds))
	}
	if *workers < 0 {
		return exit(2, fmt.Errorf("-workers %d: must not be negative (0 = one per core)", *workers))
	}

	if *http != "" {
		hub := obs.NewHub()
		hub.EnsureRegistry()
		srv, err := cliutil.ServeOps(stderr, *http, hub)
		if err != nil {
			return exit(1, err)
		}
		defer srv.Close()
	}

	params := exp.Params{N: *n, Rounds: *rounds, Seeds: exp.SeedList(*seeds), Workers: *workers}
	err := exp.RunFigures(figs, params, func(_ exp.Figure, tables []exp.Table) {
		for _, t := range tables {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
	})
	if err != nil {
		return exit(1, err)
	}
	return 0
}
