package main

import (
	"fmt"
	"io"
)

// The interaction model: an outside approximation of "where a microsecond
// goes". For a sim-* workload it sets the measured time per kernel event
// next to the sum over layers of (calls per event, from the run's exact
// counters) x (ns per call, from the layer probes), and prints what the sum
// does not explain as its own row. It cannot see inside a call, so rows that
// rest on an assumption say so (README "Interaction model").

// modelRow is one line of the attribution table.
type modelRow struct {
	what string
	ns   float64 // per kernel event
	how  string
}

// simModel builds the attribution for a traced sim-* report, which by now
// holds the exact counters of the instrumented repeat and every layer probe.
func simModel(rep *workloadReport) []modelRow {
	get := func(name string) float64 {
		m, _ := rep.metric(name)
		return m.Median
	}
	in := rep.modelIn
	events := get("exp.events")
	sent := get("simnet.datagrams")
	// A datagram lost on the link never becomes an event; every other one is
	// one delivery event, admitted or not. The rest of the events are ticks.
	deliveries := sent - get("simnet.drops_link")
	ticks := events - deliveries
	if ticks < 0 {
		ticks = 0
	}
	delivered := in["delivered"]

	schedNs, schedHow := get("sim.lane_ns_per_event"), "lane"
	if in["jittered"] == 1 {
		schedNs, schedHow = get("sim.heap_ns_per_event"), "heap (every datagram is jittered)"
	}
	// The paper mix: 80% natted, of which 50% RC, 40% PRC, 10% SYM.
	const natted = 0.8
	byClass := func(metric string) float64 {
		return 0.5*get("nat.rc."+metric) + 0.4*get("nat.prc."+metric) + 0.1*get("nat.sym."+metric)
	}
	other := 1 - in["mix.request"] - in["mix.response"]

	rows := []modelRow{
		{"sim scheduler", (deliveries*schedNs + ticks*get("sim.tick_ns_per_event")) / events,
			fmt.Sprintf("%.0f deliveries x %s + %.0f ticks x tick", deliveries, schedHow, ticks)},
		{"simnet forwarding", sent * max(0, get("simnet.deliver_ns_per_datagram")-get("sim.lane_ns_per_event")) / events,
			"datagrams x (echo-network probe - lane probe)"},
		{"nat translate + filter", (sent*natted*byClass("outbound_ns") + (sent-get("simnet.drops_nat"))*natted*byClass("inbound_hit_ns") + get("simnet.drops_nat")*byClass("inbound_miss_ns")) / events,
			"80% natted senders and receivers, class-weighted probes; NAT drops x miss"},
		{"core engine (view merge inside)", (ticks*get("core.tick_ns") + delivered*(in["mix.request"]*get("core.receive_request_ns")+in["mix.response"]*get("core.receive_response_ns")+other*get("core.forward_ns"))) / events,
			fmt.Sprintf("ticks x tick + delivered x kind mix from the trace tail (%.0f%% request, %.0f%% response, rest costed as a forward)", 100*in["mix.request"], 100*in["mix.response"])},
	}
	if in["peers"] >= 10_000 {
		rows = append(rows, modelRow{"rt cold-miss penalty", 2 * sent * max(0, get("rt.next_cold_ns")-get("rt.next_hit_ns")) / events,
			"assumes 2 DRAM-cold table walks per datagram (send and receive); working set >> LLC"})
	}
	rows = append(rows,
		modelRow{"exp fixed cost", get("exp.fixed_cost_s_10k") * in["peers"] / 10_000 * 1e9 / events, "build + bootstrap + final measure, scaled from the 10k probe"},
		modelRow{"kernel barriers", in["barrier_ns"] / events, "sim.Timing barrier wall of the instrumented repeat"},
	)
	return rows
}

// printModel prints the interaction model of a traced report and records its
// totals as metrics.
func printModel(w io.Writer, workload string, rep *workloadReport) {
	measured, ok := rep.metric("model.measured_ns")
	if !ok {
		return // sweep and snapshot have no per-event model
	}
	var rows []modelRow
	unit := "ns per kernel event"
	if workload == wlLive {
		unit = "ns per shuffle round trip"
		rows = []modelRow{
			{"udp round-trip floor", 1e3 * rep.modelIn["floor_us"], "same closed loop against a bare echo goroutine"},
			{"node turnaround", 1e3 * rep.modelIn["turnaround_us"], "packet handed to the node -> node's Send, p50"},
		}
	} else {
		rows = simModel(rep)
	}
	explained := 0.0
	fmt.Fprintf(w, "\ninteraction model, %s (%s): measured %.1f\n", workload, unit, measured.Median)
	for _, r := range rows {
		explained += r.ns
		fmt.Fprintf(w, "   %-32s %10.1f  %5.1f%%  %s\n", r.what, r.ns, 100*r.ns/measured.Median, r.how)
	}
	fmt.Fprintf(w, "   %-32s %10.1f  %5.1f%%\n", "explained", explained, 100*explained/measured.Median)
	fmt.Fprintf(w, "   %-32s %10.1f  %5.1f%%  what outside probes cannot see: the probes run cache-hot, a run's per-peer state is not; GC; the harness\n\n",
		"unexplained remainder", measured.Median-explained, 100*(measured.Median-explained)/measured.Median)
	rep.add("model.explained_ns", explained)
	rep.add("model.unexplained_ns", measured.Median-explained)
}
