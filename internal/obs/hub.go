package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// RunInfo describes the execution shape of the simulation a Hub observes.
type RunInfo struct {
	Shards, Workers int
	N, Rounds       int
	PeriodMs        int64
}

// Hub bundles one process's observability surface: a metrics registry and —
// once bound to a simulation run — the health accumulators and the kernel
// timing probe. CLIs create a Hub, hand it to the HTTP server and (via
// exp.Config.Obs) to the experiment runner; the runner binds it. Standalone
// hosts (nylon-sweep's job loop, nylon-node's report loop) skip binding and
// use EnsureRegistry directly.
//
// A Hub observes at most one simulation run: BindSim panics on a second
// bind, because per-shard slots and ID-indexed tallies are sized per run.
type Hub struct {
	mu     sync.Mutex
	reg    *Registry
	health *Health
	timing *sim.Timing
	info   RunInfo
	bound  bool
	start  time.Time

	traces  *trace.Sharded
	simDone bool

	gRound, gAlive, gCluster, gStale *Gauge
}

// NewHub creates an empty hub.
func NewHub() *Hub { return &Hub{start: time.Now()} }

// BindSim sizes the hub for one simulation run: a per-shard registry, the
// health accumulators, and the kernel timing probe. The experiment runner
// calls it when Config.Obs is set; hosts only read the results.
func (h *Hub) BindSim(info RunInfo) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bound {
		panic("obs: Hub already bound to a run (a Hub observes exactly one simulation)")
	}
	h.bound = true
	h.info = info
	h.reg = NewRegistry(info.Shards)
	h.health = NewHealth(info.Shards, info.N)
	h.timing = sim.NewTiming(info.Shards)
	h.gRound = h.reg.Gauge("nylon_overlay_sample_round", "round of the latest health sample")
	h.gAlive = h.reg.Gauge("nylon_overlay_sample_alive_peers", "alive population at the latest health sample")
	h.gCluster = h.reg.Gauge("nylon_overlay_cluster_fraction", "biggest-cluster fraction at the latest health sample")
	h.gStale = h.reg.Gauge("nylon_overlay_stale_fraction", "stale view-entry fraction at the latest health sample")
}

// EnsureRegistry returns the hub's registry, creating a single-slot one for
// hosts with no shard structure (sweep and live-node loops).
func (h *Hub) EnsureRegistry() *Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.reg == nil {
		h.reg = NewRegistry(1)
	}
	return h.reg
}

// Registry returns the current registry (nil before BindSim/EnsureRegistry).
func (h *Hub) Registry() *Registry { h.mu.Lock(); defer h.mu.Unlock(); return h.reg }

// Health returns the health accumulators (nil until BindSim).
func (h *Hub) Health() *Health { h.mu.Lock(); defer h.mu.Unlock(); return h.health }

// Timing returns the kernel timing probe (nil until BindSim).
func (h *Hub) Timing() *sim.Timing { h.mu.Lock(); defer h.mu.Unlock(); return h.timing }

// Info returns the bound run's execution shape (zero until BindSim).
func (h *Hub) Info() RunInfo { h.mu.Lock(); defer h.mu.Unlock(); return h.info }

// SetTrace hands the hub the run's sharded trace recorder so the live
// endpoint can serve /debug/trace. The runner calls it when tracing is on.
func (h *Hub) SetTrace(ts *trace.Sharded) { h.mu.Lock(); defer h.mu.Unlock(); h.traces = ts }

// Trace returns the run's trace recorder (nil when tracing is off).
func (h *Hub) Trace() *trace.Sharded { h.mu.Lock(); defer h.mu.Unlock(); return h.traces }

// MarkSimDone records that the bound simulation has returned: barriers no
// longer fire, so /debug/trace switches from the live tap to direct reads.
func (h *Hub) MarkSimDone() { h.mu.Lock(); defer h.mu.Unlock(); h.simDone = true }

// SimDone reports whether MarkSimDone was called.
func (h *Hub) SimDone() bool { h.mu.Lock(); defer h.mu.Unlock(); return h.simDone }

// Uptime returns the time since the hub was created.
func (h *Hub) Uptime() time.Duration { return time.Since(h.start) }

// PublishSample exposes the latest periodic health sample on the live
// endpoint. Called from the runner's sampler at barrier context; pure
// gauge stores, so it can never perturb the run.
func (h *Hub) PublishSample(round, alive int, cluster, stale float64) {
	h.mu.Lock()
	gr, ga, gc, gs := h.gRound, h.gAlive, h.gCluster, h.gStale
	h.mu.Unlock()
	if gr == nil {
		return
	}
	gr.Set(float64(round))
	ga.Set(float64(alive))
	gc.Set(cluster)
	gs.Set(stale)
}

// KernelTable renders the end-of-run phase-timing and overlay-health table
// (the -metrics output of nylon-sim).
func KernelTable(h *Hub) string {
	t, he := h.Timing(), h.Health()
	if t == nil {
		return "kernel timing       (run was not instrumented)\n"
	}
	var b strings.Builder
	exec, barrier := time.Duration(t.ExecNs()), time.Duration(t.BarrierNs())
	total := exec + barrier
	pct := func(d time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	fmt.Fprintf(&b, "kernel timing       exec %v (%.1f%%), barrier %v (%.1f%%), %d windows\n",
		exec.Round(time.Millisecond), pct(exec), barrier.Round(time.Millisecond), pct(barrier), t.Windows())
	fmt.Fprintf(&b, "kernel events       %d processed, %d pending at the last barrier, virtual clock %dms\n",
		t.Events(), t.PendingEvents(), t.VirtualMs())
	if w := t.Windows(); w > 0 {
		fmt.Fprintf(&b, "window occupancy    %.1f events per shard-window\n",
			float64(t.Events())/float64(w*int64(t.Shards())))
	}
	for i := 0; i < t.Shards(); i++ {
		ns := t.ShardExecNs(i)
		ev := t.ShardEvents(i)
		rate := 0.0
		if ns > 0 {
			rate = float64(ev) / (float64(ns) / 1e9)
		}
		fmt.Fprintf(&b, "  shard %-3d         exec %v, %d events (%.0f events/s while executing)\n",
			i, time.Duration(ns).Round(time.Millisecond), ev, rate)
	}
	if he != nil {
		maxDeg, isolated := he.IndegreeStats()
		fmt.Fprintf(&b, "overlay health      %d/%d alive, %d view entries (%d in live views), %d dead refs\n",
			he.Alive(), he.Total(), he.Entries(), he.AliveEntries(), he.DeadRefs())
		fmt.Fprintf(&b, "indegree            max %d, %d isolated alive peers\n", maxDeg, isolated)
	}
	return b.String()
}
