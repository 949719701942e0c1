package exp

import (
	"runtime"

	"repro/internal/stats"
)

// Executor bounds how many simulation runs execute at once. It is the one
// execution path shared by every sweep-shaped caller — the figure
// reproductions (internal/exp), the scenario sweep orchestrator
// (internal/sweep), and their CLIs — so the worker-budget policy lives in
// exactly one place: outer parallelism saturates the slots while every
// individual run executes its sharded kernel at Workers=1. Inner and outer
// parallelism share one budget instead of multiplying into oversubscription,
// and since results are worker-count-invariant this is purely a scheduling
// choice.
type Executor struct {
	slots chan struct{}
}

// NewExecutor returns an executor running at most workers simulations at
// once; workers <= 0 means one per core.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{slots: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (e *Executor) Workers() int { return cap(e.slots) }

// Run executes one simulation through the pool: it blocks for a slot, forces
// the run's kernel to a single worker (see the type comment), and runs it.
func (e *Executor) Run(cfg Config) (Result, error) {
	e.slots <- struct{}{}
	defer func() { <-e.slots }()
	cfg.Workers = 1
	return Run(cfg)
}

// ResumeFile resumes a snapshot through the pool under the same worker-budget
// policy as Run: one slot, single-worker kernel. Results are bit-identical to
// Run for any slot or worker count, so callers may mix fresh and resumed
// executions of the same grid freely.
func (e *Executor) ResumeFile(path string, opt ResumeOptions) (Result, error) {
	e.slots <- struct{}{}
	defer func() { <-e.slots }()
	opt.Workers = 1
	return ResumeFile(path, opt)
}

// SeedList returns the canonical seed list {1, …, n} used by the sweep CLIs
// (empty for n ≤ 0).
func SeedList(n int) []int64 {
	if n < 0 {
		n = 0
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// meanResult averages the scalar metrics of a point's per-seed results.
func meanResult(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	out := rs[0]
	vals := make([]float64, len(rs))
	mean := func(f func(Result) float64) float64 {
		for i, r := range rs {
			vals[i] = f(r)
		}
		return stats.Mean(vals)
	}
	out.BiggestCluster = mean(func(r Result) float64 { return r.BiggestCluster })
	out.StaleFraction = mean(func(r Result) float64 { return r.StaleFraction })
	out.NattedNonStale = mean(func(r Result) float64 { return r.NattedNonStale })
	out.BytesPerSecAll = mean(func(r Result) float64 { return r.BytesPerSecAll })
	out.BytesPerSecPublic = mean(func(r Result) float64 { return r.BytesPerSecPublic })
	out.BytesPerSecNatted = mean(func(r Result) float64 { return r.BytesPerSecNatted })
	out.AvgChainLen = mean(func(r Result) float64 { return r.AvgChainLen })
	out.ChiSquareStat = mean(func(r Result) float64 { return r.ChiSquareStat })
	out.CompletionRate = mean(func(r Result) float64 { return r.CompletionRate })
	out.NoRouteRate = mean(func(r Result) float64 { return r.NoRouteRate })
	ok := true
	for _, r := range rs {
		ok = ok && r.ChiSquareOK
	}
	out.ChiSquareOK = ok
	return out
}
