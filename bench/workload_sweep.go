package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// The benchmark owns its copy of the scenario-lab grid, so editing the
// examples never moves a benchmark number.
//
//go:embed workloads/sweep-lab-grid/*.json
var sweepFiles embed.FS

const sweepDir = "workloads/sweep-lab-grid"

// sweepInstance repeats a cold sweep of the grid into a fresh run directory.
type sweepInstance struct {
	dir      string // scratch root
	grid     *sweep.Grid
	expandMs float64
	runs     int
}

func setupSweep(e *env) (instance, error) {
	s := &sweepInstance{dir: filepath.Join(e.tmp, "sweep")}
	specDir := filepath.Join(s.dir, "spec")
	if err := os.MkdirAll(specDir, 0o755); err != nil {
		return nil, err
	}
	entries, err := sweepFiles.ReadDir(sweepDir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		data, err := sweepFiles.ReadFile(sweepDir + "/" + ent.Name())
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(specDir, ent.Name()), data, 0o644); err != nil {
			return nil, err
		}
	}
	spec, err := sweep.LoadSpec(filepath.Join(specDir, "sweep.json"))
	if err != nil {
		return nil, err
	}
	// The file says three seeds; which three comes from -seed.
	n := spec.Seeds
	spec.Seeds, spec.SeedList = 0, nil
	for i := 1; i <= n; i++ {
		spec.SeedList = append(spec.SeedList, e.seed*1000+int64(i))
	}
	start := time.Now()
	if s.grid, err = sweep.Expand(spec, specDir); err != nil {
		return nil, err
	}
	s.expandMs = float64(time.Since(start).Microseconds()) / 1e3

	// Warm-up: the first job of each variant, so every code path of a job
	// has run once before the first timed repeat.
	warm := *s.grid
	warm.Jobs = []sweep.Job{s.grid.Jobs[0], s.grid.Jobs[len(spec.SeedList)]}
	if _, _, err := sweep.Execute(&warm, filepath.Join(s.dir, "warm"), sweep.Options{Workers: runtime.GOMAXPROCS(0), Log: pollWriter{}}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepInstance) close() { os.RemoveAll(s.dir) }

func (s *sweepInstance) repeat(spans *spanRecorder, parent int) sample {
	jobs := len(s.grid.Jobs)
	out := sample{attempted: jobs + 1, events: 1, peers: 1, extra: map[string]float64{}}
	s.runs++
	dir := filepath.Join(s.dir, fmt.Sprintf("run-%d", s.runs))
	defer os.RemoveAll(dir)

	// The progress log is the host reference's hook: one line, one poll,
	// per finished job.
	opts := sweep.Options{Workers: runtime.GOMAXPROCS(0), Log: pollWriter{}}
	// The hub is sweep-level progress only (job counts and a job-seconds
	// histogram); the jobs themselves stay unobserved.
	var hub *obs.Hub
	if spans != nil {
		hub = obs.NewHub()
		opts.Obs = hub
	}

	m := startMeter()
	id := spans.begin("sweep.Execute", parent)
	results, stats, err := sweep.Execute(s.grid, dir, opts)
	spans.end(id)
	if err != nil {
		out.usage = m.stop()
		out.failures = append(out.failures, fmt.Sprintf("sweep.Execute: %v", err))
		return out
	}
	id = spans.begin("sweep.Aggregate", parent)
	aggStart := time.Now()
	art, err := sweep.Aggregate(s.grid, results)
	var artJSON []byte
	if err == nil {
		artJSON, err = art.JSON()
	}
	out.extra["sweep.aggregate_ms"] = float64(time.Since(aggStart).Microseconds()) / 1e3
	spans.end(id)
	out.usage = m.stop()
	if err != nil {
		out.failures = append(out.failures, fmt.Sprintf("sweep.Aggregate: %v", err))
		return out
	}
	if stats.Ran != jobs {
		out.failures = append(out.failures, fmt.Sprintf("cold pass ran %d of %d jobs", stats.Ran, jobs))
	}
	out.events, out.peers = 0, 0
	for _, jr := range results {
		out.events += jr.EventsProcessed
		out.peers += jr.TotalPeers
	}
	sum := sha256.Sum256(artJSON)
	out.digest = hex.EncodeToString(sum[:])
	out.extra["jobs_per_s"] = float64(jobs) / out.ref(out.Wall)

	// Warm pass over the directory just filled: every job must come from
	// the checksummed cache.
	id = spans.begin("sweep.Execute warm", parent)
	warmStart := time.Now()
	_, warmStats, err := sweep.Execute(s.grid, dir, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
	out.extra["sweep.warm_jobs_per_s"] = float64(jobs) / time.Since(warmStart).Seconds()
	spans.end(id)
	if err != nil || warmStats.Ran != 0 {
		out.failures = append(out.failures, fmt.Sprintf("warm pass ran %d jobs (err %v), want 0 from a full cache", warmStats.Ran, err))
	}

	if hub != nil {
		if h, ok := hub.EnsureRegistry().JSONValues()["nylon_sweep_job_seconds"].(map[string]any); ok {
			count, _ := h["count"].(uint64)
			total, _ := h["sum"].(float64)
			if count > 0 {
				out.extra["sweep.job_s_mean"] = total / float64(count)
			}
		}
		out.extra["sweep.expand_ms"] = s.expandMs
	}
	return out
}

func (s *sweepInstance) traced(e *env, spans *spanRecorder, root int, rep *workloadReport) {
	tracedRepeat(s.repeat, spans, root, rep)
}

var sweepDef = workloadDef{
	name:  wlSweep,
	why:   "24 short-lived 300-peer worlds over four adversity scenarios: build, bootstrap, final measure, series sampling and the checksummed cache write dominate; parallelism is per job, not per shard",
	setup: setupSweep,
}
