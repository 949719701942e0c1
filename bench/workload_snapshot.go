package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/probes"
	"repro/internal/exp"
	"repro/internal/snapshot"
)

// snapshotInstance repeats: run to the round-9 barrier, capture, resume to
// the horizon.
type snapshotInstance struct {
	dir       string
	cfg       exp.Config
	refDigest string        // the straight-through run's result
	refWall   time.Duration // its wall time
	runs      int
}

// stopRound is where the checkpoint lands: the last round boundary before
// the horizon, so the resume runs exactly one round and the final measure.
const stopRound = 9

func setupSnapshot(e *env) (instance, error) {
	s := &snapshotInstance{
		dir: filepath.Join(e.tmp, "snapshot"),
		cfg: probes.PaperConfig(20_000, stopRound+1, runtime.GOMAXPROCS(0), 32, e.seed),
	}
	// The reference: the same configuration straight through.
	start := time.Now()
	res, err := exp.Run(withHostPoll(s.cfg, s.dir))
	if err != nil {
		return nil, err
	}
	s.refWall = time.Since(start)
	s.refDigest = digestResult(res)
	return s, nil
}

func (s *snapshotInstance) close() { os.RemoveAll(s.dir) }

func (s *snapshotInstance) repeat(spans *spanRecorder, parent int) sample {
	out := sample{attempted: 1, events: 1, peers: s.cfg.N, extra: map[string]float64{}}
	fail := func(format string, args ...any) sample {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
		if out.Wall == 0 {
			out.Wall = time.Nanosecond
		}
		return out
	}
	s.runs++
	dir := filepath.Join(s.dir, fmt.Sprintf("run-%d", s.runs))
	defer os.RemoveAll(dir)

	// The kernel polls Stop at every barrier: one per lookahead window of
	// LatencyMs, starting at time zero. Answering true on the poll at
	// stopRound x PeriodMs lands the snapshot on that round boundary.
	cfg := s.cfg.Defaults()
	stopPoll := int(int64(stopRound) * cfg.PeriodMs / cfg.LatencyMs)
	polls := 0
	var capture meter
	cfg.Checkpoint = &exp.CheckpointSpec{Dir: dir, Stop: func() bool {
		polls++
		if polls-1 < stopPoll {
			host.poll()
			return false
		}
		capture = startMeter()
		return true
	}}

	id := spans.begin("run-to-stop + capture", parent)
	m := startMeter()
	_, err := exp.Run(cfg)
	ran := m.stop()
	spans.end(id)
	if capture.start.IsZero() {
		return fail("run ended before the stop poll: %v", err)
	}
	captured := capture.stop()
	runToStop := capture.start.Sub(m.start)
	spans.record("capture", id, 0, capture.start, capture.start.Add(captured.Wall))

	var ie *exp.InterruptedError
	if !errors.As(err, &ie) {
		return fail("exp.Run with a Stop hook returned %v, want *exp.InterruptedError", err)
	}
	if ie.Round != stopRound {
		return fail("snapshot landed at round %d, want %d", ie.Round, stopRound)
	}
	info, err := os.Stat(ie.Path)
	if err != nil {
		return fail("snapshot file: %v", err)
	}

	// Layer rows of the traced pass, outside the measured parts: the
	// envelope alone (read + sha256 verify, atomic write) on the real payload.
	readVerify := time.Duration(0)
	if spans != nil {
		id := spans.begin("snapshot.ReadFile", parent)
		start := time.Now()
		payload, err := snapshot.ReadFile(ie.Path)
		readVerify = time.Since(start)
		spans.end(id)
		if err != nil {
			return fail("snapshot.ReadFile: %v", err)
		}
		id = spans.begin("snapshot.WriteFile", parent)
		start = time.Now()
		err = snapshot.WriteFile(filepath.Join(dir, "copy.snap"), payload)
		out.extra["snapshot.write_ms"] = float64(time.Since(start).Microseconds()) / 1e3
		spans.end(id)
		if err != nil {
			return fail("snapshot.WriteFile: %v", err)
		}
		out.extra["snapshot.read_verify_ms"] = float64(readVerify.Microseconds()) / 1e3
	}

	runtime.GC()
	id = spans.begin("exp.ResumeFile", parent)
	m = startMeter()
	res, err := exp.ResumeFile(ie.Path, exp.ResumeOptions{Checkpoint: hostPollSpec(dir)})
	resumed := m.stop()
	spans.end(id)
	if err != nil {
		return fail("exp.ResumeFile: %v", err)
	}
	// The whole repeat is measured: the run to the stop, the capture and
	// the resume, a checkpointed run end to end. The capture alone faults in
	// ~130 MB of fresh buffers and reads 0.5 s or 1.1 s from one process to
	// the next on the host this was defined on, so it is reported on its own
	// (capture_s) and not left to dominate the workload's common metrics.
	out.usage = ran.add(resumed)
	out.events, out.peers = res.EventsProcessed, res.TotalPeers
	out.digest = digestResult(res)
	if out.digest != s.refDigest {
		out.failures = append(out.failures, fmt.Sprintf("capture+resume digest %s differs from straight-through %s", out.digest, s.refDigest))
	}
	out.extra["capture_s"] = captured.ref(captured.Wall)
	out.extra["resume_s"] = resumed.ref(resumed.Wall)
	out.extra["snapshot_bytes_per_peer"] = float64(info.Size()) / float64(s.cfg.N)
	if spans != nil {
		// What the resumed run does after restoring is one round and the
		// final measure: the straight-through run minus the run to the stop.
		tail := s.refWall - runToStop
		out.extra["snapshot.restore_s"] = (resumed.Wall - readVerify - tail).Seconds()
	}
	return out
}

func (s *snapshotInstance) traced(e *env, spans *spanRecorder, root int, rep *workloadReport) {
	tracedRepeat(s.repeat, spans, root, rep)
	rep.note("snapshot.reference_wall_s", "%.4f", s.refWall.Seconds())
}

var snapshotDef = workloadDef{
	name:  wlSnapshot,
	why:   "Checkpoint a 20k-peer world at the round-9 barrier and resume it to the horizon: the only workload where the snapshot codec and every layer's SnapshotTo/RestoreFrom do the work",
	setup: setupSnapshot,
}
