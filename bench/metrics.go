package main

// The metric catalogue: every name this benchmark prints, with its unit,
// direction and regression bound. BENCHMARK.json at the repository root
// mirrors it (catalogue_test.go pins the two together).

// Workload names.
const (
	wlSteady   = "sim-steady-10k"
	wlParallel = "sim-parallel-10k"
	wlStorm    = "sim-storm-1k"
	wlSweep    = "sweep-lab-grid"
	wlSnapshot = "snapshot-roundtrip-20k"
	wlLive     = "live-shuffle-loopback"
)

var simWorkloads = []string{wlSteady, wlParallel, wlStorm}

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression; 0 marks an informational
	// per-layer metric.
	Bound float64
	// Floor is an absolute slack in the metric's unit, for metrics whose
	// median can be near zero.
	Floor float64
	// Workloads lists where the metric is measured; nil means every workload.
	Workloads []string
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is expected to move.
	Moves string
	// Exact marks a simulated count that repeats bit for bit for one seed:
	// two commits compare exactly, and -compare lists any difference.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// timeBound is the bound of every metric made of wall or CPU time. It is set
// by the machine this benchmark was defined on, not by the metrics: a 2-vCPU
// microVM whose speed moves by a factor of up to three for minutes at a time.
// In reference time (hostref.go) ten runs of one workload spread (Q3-Q1 over
// the median) by 1-9%, by 12% across a change of the host's regime, and two
// evaluations differ by up to 9% (README "The host reference"). A bound below the spread would call noise a
// regression.
const timeBound = 0.25

// commonMetrics are the end-to-end metrics every workload reports: the list
// BENCHMARK.json gates. Each has one definition, bound per workload to that
// workload's unit of work (README "Metric glossary"):
//
//	workload                 event                             peers
//	sim-*                    simulator kernel event            peers ever attached
//	sweep-lab-grid           kernel event, summed over jobs    the same, summed over jobs
//	snapshot-roundtrip-20k   simulator kernel event            peers ever attached
//	live-shuffle-loopback    datagram through the node socket  synthetic peers
//
// alloc_bytes_per_peer repeats to the byte for one seed; its bound covers
// the seed-to-seed spread of the stochastic scenarios (2% on sim-storm-1k).
var commonMetrics = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: timeBound, Floor: 0.2},
	{Name: "run_wall_s", Unit: "s", Better: lower, Bound: timeBound},
	{Name: "events_per_s", Unit: "events/s", Better: higher, Bound: timeBound},
	{Name: "cpu_us_per_event", Unit: "us", Better: lower, Bound: timeBound},
	{Name: "alloc_bytes_per_peer", Unit: "B", Better: lower, Bound: 0.08},
	{Name: "peak_rss_mib", Unit: "MiB", Better: lower, Bound: 0.20},
}

// nativeMetrics are end-to-end metrics that exist on some workloads only.
// The driver contract takes one metric list for all workloads, so these are
// gated by this benchmark's own -compare and listed per-layer in
// BENCHMARK.json.
var nativeMetrics = []metricSpec{
	{Name: "jobs_per_s", Unit: "jobs/s", Better: higher, Bound: timeBound, Workloads: []string{wlSweep}},
	{Name: "capture_s", Unit: "s", Better: lower, Bound: timeBound, Workloads: []string{wlSnapshot}},
	{Name: "resume_s", Unit: "s", Better: lower, Bound: timeBound, Workloads: []string{wlSnapshot}},
	{Name: "snapshot_bytes_per_peer", Unit: "B", Better: lower, Bound: 0.02, Workloads: []string{wlSnapshot}},
	{Name: "shuffles_per_s", Unit: "1/s", Better: higher, Bound: timeBound, Workloads: []string{wlLive}},
	{Name: "rtt_us_p50", Unit: "us", Better: lower, Bound: 0.10, Workloads: []string{wlLive}},
	{Name: "cpu_us_per_shuffle", Unit: "us", Better: lower, Bound: timeBound, Workloads: []string{wlLive}},
	{Name: "failed_ops_share", Unit: "ratio", Better: lower},
}

// hostMetrics say what the host did while a run measured (hostref.go): the
// factor every time metric of the run was divided by, and the wall time as
// the clock read it. They belong to no layer of the program; both passes
// print them.
var hostMetrics = []metricSpec{
	{Name: "host.factor", Unit: "ratio", Better: lower, Moves: "nothing: it is the host's speed, taken out of every time metric"},
	{Name: "host.run_wall_raw_s", Unit: "s", Better: lower, Moves: "run_wall_s x host.factor"},
	{Name: "host.alu_ns", Unit: "ns", Better: lower, Moves: "host.factor: one step of the arithmetic kernel"},
	{Name: "host.search_ns", Unit: "ns", Better: lower, Moves: "host.factor: one search of the table kernel"},
}

// layerMetrics are the per-layer metrics of the traced pass. Layer names are
// the repository's packages.
var layerMetrics = []metricSpec{
	// sim: kernel phases from the program's own sim.Timing probe, scheduler
	// paths from probes/sim.go.
	{Name: "sim.exec_ns_per_event", Unit: "ns", Better: lower, Workloads: simWorkloads, Moves: "events_per_s on sim-*"},
	{Name: "sim.barrier_ns_per_window", Unit: "ns", Better: lower, Workloads: simWorkloads, Moves: "events_per_s, cpu_us_per_event on sim-parallel-10k"},
	{Name: "sim.windows", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "sim.shard_imbalance", Unit: "ratio", Better: lower, Workloads: simWorkloads, Moves: "events_per_s on sim-parallel-10k"},
	{Name: "sim.lane_ns_per_event", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "sim.heap_ns_per_event", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "sim.tick_ns_per_event", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "sim.lane_allocs", Unit: "count", Better: lower, Moves: "must stay 0"},

	// simnet: exact counters from the metrics registry, forwarding probe.
	{Name: "simnet.datagrams", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "simnet.bytes", Unit: "B", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "simnet.drops_nat", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "simnet.drops_link", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true, Moves: "non-zero on sim-storm-1k only"},
	{Name: "simnet.drops_partition", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true, Moves: "non-zero on sim-storm-1k only"},
	{Name: "simnet.drops_dead", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "simnet.deliver_ns_per_datagram", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},

	// nat: one device per class, 64 live sessions.
	{Name: "nat.rc.outbound_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.rc.inbound_hit_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.rc.inbound_miss_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.rc.gc_ns_per_rule", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "nat.prc.outbound_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.prc.inbound_hit_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.prc.inbound_miss_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.prc.gc_ns_per_rule", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "nat.sym.outbound_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.sym.inbound_hit_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.sym.inbound_miss_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "nat.sym.gc_ns_per_rule", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},

	// rt: one cache-hot 64-row table, and 10 000 tables visited at random.
	{Name: "rt.next_hit_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "rt.set_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "rt.purge_ns_per_row", Unit: "ns", Better: lower, Moves: "events_per_s on sim-storm-1k"},
	{Name: "rt.next_cold_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k, not sim-storm-1k"},
	{Name: "rt.bytes_per_row", Unit: "B", Better: lower, Moves: "alloc_bytes_per_peer, peak_rss_mib"},

	{Name: "intern.hit_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "intern.miss_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-steady-10k"},
	{Name: "intern.bytes_per_desc", Unit: "B", Better: lower, Moves: "alloc_bytes_per_peer"},

	{Name: "view.exchange_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*, shuffles_per_s on live-shuffle-loopback"},
	{Name: "view.select_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*"},
	{Name: "view.exchange_allocs", Unit: "count", Better: lower, Moves: "must stay 0"},

	// core: a warm core.Nylon engine; the three pct/len rows are exact
	// statistics of the traced repeat's Result.
	{Name: "core.tick_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*"},
	{Name: "core.receive_request_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*, rtt_us_p50 on live-shuffle-loopback"},
	{Name: "core.receive_response_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*"},
	{Name: "core.forward_ns", Unit: "ns", Better: lower, Moves: "events_per_s on sim-*"},
	{Name: "core.receive_allocs", Unit: "count", Better: lower, Moves: "alloc_bytes_per_peer"},
	{Name: "core.shuffle_completion_pct", Unit: "%", Better: higher, Workloads: simWorkloads, Exact: true},
	{Name: "core.noroute_pct", Unit: "%", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "core.avg_chain_len", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},

	{Name: "wire.marshal_ns", Unit: "ns", Better: lower, Moves: "rtt_us_p50 on live-shuffle-loopback; nothing on sim-*"},
	{Name: "wire.unmarshal_ns", Unit: "ns", Better: lower, Moves: "rtt_us_p50 on live-shuffle-loopback; nothing on sim-*"},
	{Name: "wire.unmarshal_allocs", Unit: "count", Better: lower, Moves: "cpu_us_per_shuffle on live-shuffle-loopback"},

	{Name: "trace.record_ns", Unit: "ns", Better: lower, Moves: "obs.overhead_pct"},
	{Name: "trace.merged_ns_per_event", Unit: "ns", Better: lower, Moves: "obs.overhead_pct"},
	{Name: "obs.counter_add_ns", Unit: "ns", Better: lower, Moves: "obs.overhead_pct"},
	{Name: "obs.health_hook_ns", Unit: "ns", Better: lower, Moves: "obs.overhead_pct"},
	{Name: "obs.overhead_pct", Unit: "%", Better: lower, Workloads: simWorkloads, Moves: "what an instrumented user pays; nothing when off"},

	{Name: "exp.fixed_cost_s_10k", Unit: "s", Better: lower, Moves: "run_wall_s on sim-*-10k"},
	{Name: "exp.fixed_cost_ms_300", Unit: "ms", Better: lower, Moves: "jobs_per_s on sweep-lab-grid"},
	{Name: "exp.events", Unit: "count", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "exp.biggest_cluster_pct", Unit: "%", Better: higher, Workloads: simWorkloads, Exact: true},
	{Name: "exp.stale_pct", Unit: "%", Better: lower, Workloads: simWorkloads, Exact: true},
	{Name: "exp.bytes_per_s_per_peer", Unit: "B/s", Better: lower, Workloads: simWorkloads, Exact: true},

	{Name: "sweep.expand_ms", Unit: "ms", Better: lower, Workloads: []string{wlSweep}, Moves: "jobs_per_s on sweep-lab-grid"},
	{Name: "sweep.job_s_mean", Unit: "s", Better: lower, Workloads: []string{wlSweep}, Moves: "jobs_per_s on sweep-lab-grid"},
	{Name: "sweep.aggregate_ms", Unit: "ms", Better: lower, Workloads: []string{wlSweep}, Moves: "run_wall_s on sweep-lab-grid"},
	{Name: "sweep.warm_jobs_per_s", Unit: "jobs/s", Better: higher, Workloads: []string{wlSweep}, Moves: "nothing end to end (the warm pass is ~10 ms)"},

	{Name: "snapshot.write_ms", Unit: "ms", Better: lower, Workloads: []string{wlSnapshot}, Moves: "capture_s"},
	{Name: "snapshot.read_verify_ms", Unit: "ms", Better: lower, Workloads: []string{wlSnapshot}, Moves: "resume_s"},
	{Name: "snapshot.restore_s", Unit: "s", Better: lower, Workloads: []string{wlSnapshot}, Moves: "resume_s"},
	{Name: "snapshot.encode_mb_per_s", Unit: "MB/s", Better: higher, Moves: "capture_s, snapshot_bytes_per_peer"},

	{Name: "transport.udp_send_ns", Unit: "ns", Better: lower, Workloads: []string{wlLive}, Moves: "rtt_us_p50"},
	{Name: "transport.udp_rtt_floor_us_p50", Unit: "us", Better: lower, Workloads: []string{wlLive}, Moves: "rtt_us_p50 (a transport gain moves the floor)"},
	{Name: "transport.mem_rtt_us_p50", Unit: "us", Better: lower, Workloads: []string{wlLive}, Moves: "nothing on UDP; node cost without the kernel socket"},
	{Name: "node.turnaround_us_p50", Unit: "us", Better: lower, Workloads: []string{wlLive}, Moves: "rtt_us_p50 (a core or wire gain moves turnaround)"},
	{Name: "node.turnaround_us_p99", Unit: "us", Better: lower, Workloads: []string{wlLive}, Moves: "live.rtt_us_p99"},
	{Name: "live.rtt_us_p99", Unit: "us", Better: lower, Workloads: []string{wlLive}, Moves: "tail; moved 20-35% between identical runs, so not gated"},

	// The interaction model of the traced pass (README "Interaction model").
	{Name: "model.measured_ns", Unit: "ns", Better: lower, Moves: "1e9 / events_per_s, or rtt on live"},
	{Name: "model.explained_ns", Unit: "ns", Better: lower, Moves: "sum over layers of calls per event x probe ns"},
	{Name: "model.unexplained_ns", Unit: "ns", Better: lower, Moves: "measured - explained"},
}

// perLayerNames returns the names BENCHMARK.json lists under per_layer: the
// workload-specific end-to-end metrics first, then the layers.
func perLayerSpecs() []metricSpec {
	return append(append(append([]metricSpec(nil), nativeMetrics...), hostMetrics...), layerMetrics...)
}

// appliesTo reports whether the metric is measured on the workload.
func (m metricSpec) appliesTo(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// findSpec looks a metric up by name across the whole catalogue.
func findSpec(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{commonMetrics, nativeMetrics, hostMetrics, layerMetrics} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
