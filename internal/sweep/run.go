package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options tunes one sweep execution.
type Options struct {
	// Workers is the outer parallelism: how many jobs execute at once
	// (0 = one per core). Each job's kernel runs at Workers=1, so outer
	// parallelism alone saturates the machine without oversubscribing it.
	// Results are identical for any value.
	Workers int
	// Ctx, when non-nil, winds the sweep down when cancelled: no new jobs
	// start, and — with CheckpointEveryRounds armed — every job in
	// flight checkpoints at its next round barrier and exits. This is the
	// one shutdown path: a CLI's signal handler ends up here. The run
	// returns ErrStopped with the completed jobs persisted.
	Ctx context.Context
	// CheckpointEveryRounds, when positive, checkpoints every running job's
	// world state every N rounds into <run dir>/snapshots/<job key>/. A
	// restarted sweep then resumes each unfinished job from its latest valid
	// snapshot instead of from round zero — a killed grid loses at most N
	// rounds per in-flight job. Snapshots are dropped as soon as the job's
	// final result is persisted. Results are bit-identical with or without
	// checkpointing, resumed or straight through.
	CheckpointEveryRounds int
	// Log, when non-nil, receives one line per executed job, with running
	// progress (done/total, jobs/s, ETA) over the jobs the cache did not
	// already cover.
	Log io.Writer
	// Obs, when non-nil, publishes sweep progress (job counts, job wall
	// times) to the hub's registry so a live ops endpoint can watch the
	// sweep. The hub is host-level here: individual jobs stay unobserved
	// (each exp run would need its own hub).
	Obs *obs.Hub
}

// Stats reports how a sweep execution went.
type Stats struct {
	// Total is the grid size; Ran were executed this invocation; Cached
	// were reused from the run directory.
	Total, Ran, Cached int
	// Resumed counts the Ran jobs that continued from a mid-job snapshot
	// rather than starting at round zero.
	Resumed int
	// Workers is the resolved outer parallelism the execution actually
	// used (Options.Workers with 0 resolved to one per core).
	Workers int
}

func (s Stats) String() string {
	if s.Resumed > 0 {
		return fmt.Sprintf("jobs: %d total, %d ran (%d resumed mid-job), %d cached", s.Total, s.Ran, s.Resumed, s.Cached)
	}
	return fmt.Sprintf("jobs: %d total, %d ran, %d cached", s.Total, s.Ran, s.Cached)
}

// ErrStopped reports a sweep whose Options.Ctx was cancelled before it finished.
var ErrStopped = errors.New("sweep: stopped before completing the grid")

// Execute runs every job of the grid, reusing the run directory's
// content-addressed cache, and returns each job's exp.Result in grid order.
// A job found in the cache is not re-run; a job executed is persisted before
// it counts as done, so killing the process at any point loses at most the
// jobs in flight and a rerun completes the remainder without recomputing.
func Execute(g *Grid, dir string, opts Options) ([]*exp.Result, Stats, error) {
	cache, err := OpenCache(dir)
	if err != nil {
		return nil, Stats{}, err
	}
	cache.Log = opts.Log
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	stats := Stats{Total: len(g.Jobs)}
	results := make([]*exp.Result, len(g.Jobs))

	// Resolve cache hits first, so the progress log reflects real work.
	var missing []int
	for i, job := range g.Jobs {
		if res, ok := cache.Load(job.Key); ok {
			results[i] = res
			stats.Cached++
		} else {
			missing = append(missing, i)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats.Workers = workers

	var tracker *obs.JobTracker
	if opts.Log != nil || opts.Obs != nil {
		tracker = obs.NewJobTracker(len(missing))
	}
	var gRan, gCached *obs.Gauge
	var hJob *obs.Histogram
	if opts.Obs != nil {
		reg := opts.Obs.EnsureRegistry()
		reg.Gauge("nylon_sweep_jobs_total", "sweep grid size").Set(float64(stats.Total))
		gCached = reg.Gauge("nylon_sweep_jobs_cached", "jobs reused from the run directory cache")
		gCached.Set(float64(stats.Cached))
		gRan = reg.Gauge("nylon_sweep_jobs_ran", "jobs executed this invocation")
		hJob = reg.Histogram("nylon_sweep_job_seconds", "per-job wall time",
			[]float64{1, 2, 5, 10, 30, 60, 120, 300, 600})
	}

	var (
		mu       sync.Mutex
		firstErr error
		stopped  bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	sim.ForEach(len(missing), workers, func(m int) {
		mu.Lock()
		if ctx.Err() != nil {
			// A cancelled context stops starting jobs, while jobs in flight
			// checkpoint through their CheckpointSpec.Stop watching the
			// same context.
			stopped = true
		}
		abort := firstErr != nil || stopped
		mu.Unlock()
		if abort {
			return
		}
		i := missing[m]
		job := g.Jobs[i]
		t0 := time.Now()
		res, resumed, err := runJob(ctx, cache, job, opts)
		var ie *exp.InterruptedError
		if errors.As(err, &ie) {
			// The shutdown context fired mid-job: the job checkpointed
			// at its barrier and its snapshot stays for the next
			// invocation to resume.
			mu.Lock()
			stopped = true
			mu.Unlock()
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "interrupted (%s, %s, seed %d) at round %d, snapshot kept\n",
					job.Scenario, job.Variant, job.Seed, ie.Round)
			}
			return
		}
		if err != nil {
			fail(fmt.Errorf("sweep: job (%s, %s, seed %d): %w", job.Scenario, job.Variant, job.Seed, err))
			return
		}
		if err := cache.Store(job.Key, &res); err != nil {
			fail(err)
			return
		}
		cache.DropSnapshots(job.Key)
		mu.Lock()
		results[i] = &res
		stats.Ran++
		if resumed {
			stats.Resumed++
		}
		mu.Unlock()
		if hJob != nil {
			hJob.Observe(0, time.Since(t0).Seconds())
		}
		var done int64
		var rate float64
		var eta time.Duration
		if tracker != nil {
			done, rate, eta = tracker.Done()
		}
		if gRan != nil {
			gRan.Set(float64(done))
		}
		if opts.Log != nil {
			verb := "ran"
			if resumed {
				verb = "resumed"
			}
			fmt.Fprintf(opts.Log, "%s (%s, %s, seed %d) → cluster %.1f%% [%d/%d, %.2f jobs/s, eta %s]\n",
				verb, job.Scenario, job.Variant, job.Seed, res.BiggestCluster*100,
				done, tracker.Total(), rate, eta)
		}
	})

	if firstErr != nil {
		return nil, stats, firstErr
	}
	if stopped {
		return nil, stats, ErrStopped
	}
	return results, stats, nil
}

// runJob executes one job on a single-worker kernel (the parallelism is across
// jobs; results are worker-count-invariant). With checkpointing armed it first
// tries to resume the job's newest persisted snapshot, falling back through
// older ones — and finally to a fresh round-zero run — when a snapshot is
// rejected (corrupt, truncated, or of a different experiment point after a
// spec edit; every rejection is typed and logged, never trusted). The bool
// reports whether the returned result came from a resumed run.
func runJob(ctx context.Context, cache *Cache, job Job, opts Options) (exp.Result, bool, error) {
	cfg := job.Cfg
	cfg.Workers = 1
	var spec *exp.CheckpointSpec
	if opts.CheckpointEveryRounds > 0 {
		spec = &exp.CheckpointSpec{
			Dir:         cache.SnapshotDir(job.Key),
			EveryRounds: opts.CheckpointEveryRounds,
			Stop:        func() bool { return ctx.Err() != nil },
		}
		for _, path := range cache.Snapshots(job.Key) {
			res, err := exp.ResumeFile(path, exp.ResumeOptions{Workers: 1, Checkpoint: spec, Config: &cfg})
			var ie *exp.InterruptedError
			if err == nil || errors.As(err, &ie) {
				return res, true, err
			}
			cache.logf("sweep: snapshot %s unusable (%v), falling back", path, err)
		}
	}
	cfg.Checkpoint = spec
	res, err := exp.Run(cfg)
	return res, false, err
}
