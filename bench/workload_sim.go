package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/bench/probes"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/wire"
)

// stormScenario keeps every datagram off the constant-latency lane (jitter)
// and the scenario driver, churn and a partition busy for the whole run.
func stormScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "bench-storm",
		Churn: &scenario.Churn{JoinsPerRound: 3, LeavesPerRound: 3, StartRound: 5},
		Link:  &scenario.Link{JitterMs: 20, Loss: 0.05},
		Events: []scenario.Event{
			{Round: 50, Kind: scenario.KindPartition, Fraction: 0.3, DurationRounds: 40},
		},
	}
}

// hostPollSpec hangs the host reference on a run's barrier poll: the kernel
// asks Stop at every barrier, a millisecond of work or less apart, and the
// answer is always no. Nothing is written to dir.
func hostPollSpec(dir string) *exp.CheckpointSpec {
	return &exp.CheckpointSpec{Dir: dir, Stop: func() bool {
		host.poll()
		return false
	}}
}

func withHostPoll(cfg exp.Config, dir string) exp.Config {
	cfg.Checkpoint = hostPollSpec(dir)
	return cfg
}

// simInstance repeats one exp.Run.
type simInstance struct {
	cfg exp.Config
	// hookDir is the directory the barrier poll's CheckpointSpec names.
	hookDir string
	// paperSanity holds the run to the paper's §5 claims.
	paperSanity bool
}

func setupSim(cfg func(seed int64) exp.Config, paperSanity bool) func(*env) (instance, error) {
	return func(e *env) (instance, error) {
		s := &simInstance{cfg: cfg(e.seed), hookDir: filepath.Join(e.tmp, "hook"), paperSanity: paperSanity}
		// Warm-up: the workload's own world for a tenth of its rounds, so the
		// first timed repeat finds the heap grown and the code paged in. This
		// is what setup_s times on sim-*: build, bootstrap, a few rounds and
		// the final measure. Timeline events would fall past the shortened
		// horizon, so the warm-up keeps only the scenario's churn and link.
		warm := s.cfg
		warm.Rounds = s.cfg.Rounds / 10
		if sc := s.cfg.Scenario; sc != nil {
			warm.Scenario = &scenario.Scenario{Churn: sc.Churn, Link: sc.Link}
		}
		if _, err := exp.Run(withHostPoll(warm, s.hookDir)); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (s *simInstance) close() {}

func (s *simInstance) repeat(spans *spanRecorder, parent int) sample {
	out, _ := s.run(s.cfg, spans, parent)
	return out
}

// run executes one exp.Run of cfg and checks its result.
func (s *simInstance) run(cfg exp.Config, spans *spanRecorder, parent int) (sample, exp.Result) {
	out := sample{attempted: 1, events: 1, peers: cfg.N}
	id := spans.begin("exp.Run", parent)
	m := startMeter()
	res, err := exp.Run(withHostPoll(cfg, s.hookDir))
	out.usage = m.stop()
	spans.end(id)
	if err != nil {
		// exp.Run's own LeakCheck reports through here too.
		out.failures = append(out.failures, fmt.Sprintf("exp.Run: %v", err))
		return out, res
	}
	// Every peer ever attached allocates its own state: scenario arrivals
	// count, so the per-peer figure holds still across seeds.
	out.events, out.peers = res.EventsProcessed, res.TotalPeers
	out.digest = digestResult(res)
	if s.paperSanity {
		if res.BiggestCluster < 0.99 {
			out.failures = append(out.failures, fmt.Sprintf("biggest cluster %.4f < 0.99", res.BiggestCluster))
		}
		if res.AvgChainLen >= 4 {
			out.failures = append(out.failures, fmt.Sprintf("average RVP chain %.3f >= 4", res.AvgChainLen))
		}
		if res.BytesPerSecAll >= 350 {
			out.failures = append(out.failures, fmt.Sprintf("%.1f B/s per peer >= 350", res.BytesPerSecAll))
		}
	}
	return out, res
}

// digestResult is the sha256 of the serialised Result with the host-side
// fields cleared: execution shape (so workers 1 and 2 agree) and the trace
// tail (so a traced repeat agrees with an untraced one).
func digestResult(res exp.Result) string {
	res.Cfg.Workers, res.Cfg.Shards, res.Cfg.TraceCapacity = 0, 0, 0
	res.Trace, res.TraceDump, res.Bundles = nil, "", nil
	data, err := json.Marshal(res)
	if err != nil {
		return "unserialisable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traced alternates untraced and instrumented repeats (fresh obs.Hub and a
// 4096-event trace ring per shard): the instrumented ones feed the kernel,
// network and protocol rows from the program's own probes, the pair gives
// the observer overhead.
func (s *simInstance) traced(e *env, spans *spanRecorder, root int, rep *workloadReport) {
	const pairs = 2
	var plain, instrumented []float64
	var last exp.Result
	var hub *obs.Hub
	for i := 0; i < pairs; i++ {
		runtime.GC()
		id := spans.begin(fmt.Sprintf("repeat %d untraced", i), root)
		u, _ := s.run(s.cfg, spans, id)
		spans.end(id)

		cfg := s.cfg
		hub = obs.NewHub()
		cfg.Obs, cfg.TraceCapacity = hub, 4096
		runtime.GC()
		id = spans.begin(fmt.Sprintf("repeat %d instrumented", i), root)
		t, res := s.run(cfg, spans, id)
		spans.end(id)

		rep.Attempted += 2
		for _, f := range append(u.failures, t.failures...) {
			rep.fail("%s", f)
		}
		if u.digest != t.digest {
			rep.fail("instrumented digest %s differs from plain %s", t.digest, u.digest)
		}
		rep.Digest = u.digest
		plain = append(plain, u.ref(u.Wall))
		instrumented = append(instrumented, t.ref(t.Wall))
		rep.add("host.factor", u.Host, t.Host)
		rep.add("host.run_wall_raw_s", u.Wall.Seconds(), t.Wall.Seconds())
		last = res
	}
	rep.Repeats = 2 * pairs
	rep.add("obs.overhead_pct", 100*(median(instrumented)/median(plain)-1))
	rep.note("untraced_wall_s", "%.4f (median of %d)", median(plain), pairs)
	rep.note("instrumented_wall_s", "%.4f (median of %d)", median(instrumented), pairs)

	events := float64(last.EventsProcessed)
	rep.add("model.measured_ns", 1e9*median(plain)/events)

	t := hub.Timing()
	rep.add("sim.exec_ns_per_event", float64(t.ExecNs())/events)
	rep.add("sim.barrier_ns_per_window", float64(t.BarrierNs())/float64(t.Windows()))
	rep.add("sim.windows", float64(t.Windows()))
	var maxNs, sumNs int64
	for i := 0; i < t.Shards(); i++ {
		ns := t.ShardExecNs(i)
		sumNs += ns
		if ns > maxNs {
			maxNs = ns
		}
	}
	rep.add("sim.shard_imbalance", float64(maxNs)*float64(t.Shards())/float64(sumNs))

	reg := hub.Registry().JSONValues()
	counter := func(name string) float64 {
		v, _ := reg[name].(uint64)
		return float64(v)
	}
	rep.add("simnet.datagrams", counter("nylon_net_datagrams_sent_total"))
	rep.add("simnet.bytes", counter("nylon_net_bytes_sent_total"))
	rep.add("simnet.drops_nat", counter("nylon_net_drops_nat_total"))
	rep.add("simnet.drops_link", counter("nylon_net_drops_link_total"))
	rep.add("simnet.drops_partition", counter("nylon_net_drops_partition_total"))
	rep.add("simnet.drops_dead", counter("nylon_net_drops_dead_total"))
	rep.note("simnet.delivered", "%.0f", counter("nylon_net_datagrams_delivered_total"))
	rep.modelIn = map[string]float64{
		"delivered":  counter("nylon_net_datagrams_delivered_total"),
		"barrier_ns": float64(t.BarrierNs()),
		"peers":      float64(s.cfg.N),
	}
	if s.cfg.Scenario != nil && s.cfg.Scenario.Link != nil && s.cfg.Scenario.Link.JitterMs > 0 {
		rep.modelIn["jittered"] = 1
	}

	rep.add("core.shuffle_completion_pct", 100*last.CompletionRate)
	rep.add("core.noroute_pct", 100*last.NoRouteRate)
	rep.add("core.avg_chain_len", last.AvgChainLen)
	rep.add("exp.events", events)
	rep.add("exp.biggest_cluster_pct", 100*last.BiggestCluster)
	rep.add("exp.stale_pct", 100*last.StaleFraction)
	rep.add("exp.bytes_per_s_per_peer", last.BytesPerSecAll)

	// The message-kind mix of the delivered datagrams, sampled from the
	// merged trace tail, weights the core rows of the interaction model.
	kinds := map[wire.Kind]int{}
	delivered := 0
	for _, ev := range last.Trace {
		if ev.Op == trace.OpDeliver {
			kinds[wire.Kind(ev.Kind)]++
			delivered++
		}
	}
	if delivered > 0 {
		rep.modelIn["mix.request"] = float64(kinds[wire.KindRequest]) / float64(delivered)
		rep.modelIn["mix.response"] = float64(kinds[wire.KindResponse]) / float64(delivered)
	}
}

var simDefs = []workloadDef{
	{
		name: wlSteady,
		why:  "Paper-scale steady state on one worker: working set far beyond the LLC, every datagram on the constant-latency lane, so delivery, route and merge work must show here",
		setup: setupSim(func(seed int64) exp.Config {
			return probes.PaperConfig(10_000, 40, 1, 8, seed)
		}, true),
	},
	{
		name: wlParallel,
		why:  "The same run on two workers: barrier merge, cross-shard outboxes and the worker pool become the cost, so a single-thread gain bought with synchronisation shows as a loss here",
		setup: setupSim(func(seed int64) exp.Config {
			return probes.PaperConfig(10_000, 40, 2, 8, seed)
		}, true),
	},
	{
		name: wlStorm,
		why:  "Cache-resident 1k peers under churn, a partition and jittered lossy links: every datagram leaves the lane for the heap, so heap, scenario and churn costs show and DRAM-locality tricks do not",
		setup: setupSim(func(seed int64) exp.Config {
			cfg := probes.PaperConfig(1_000, 200, 1, 8, seed)
			cfg.Scenario = stormScenario()
			return cfg
		}, false),
	},
}
