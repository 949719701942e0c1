package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Server is the live ops endpoint: Prometheus text on /metrics, an
// expvar-style JSON dump on /debug/vars, pprof under /debug/pprof/, and a
// trivial /healthz. It reads only atomics (registry slots, timing probe,
// health accumulators), so scraping a run in flight never perturbs it.
type Server struct {
	Addr string // the bound address, resolved from the requested one (":0" works)
	srv  *http.Server
}

// Serve binds addr and serves the hub's ops endpoint in the background.
func Serve(addr string, hub *Hub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: NewMux(hub)},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// NewMux builds the ops endpoint's handler tree. Exposed separately so hosts
// with their own HTTP server can mount it.
func NewMux(hub *Hub) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, hub)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteMetricsJSON(w, hub)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		writeTraceTail(w, r, hub)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeTraceTail serves /debug/trace: a bounded JSON tail of the merged
// event trace (?n=, default 256, capped at 4096). Mid-run it posts a tap
// request answered at the next kernel barrier — the only context allowed to
// read the rings — so a scrape never races the shard writers; once the run
// has finished (Hub.MarkSimDone) it reads the rings directly. 404 when
// tracing is off, 503 when no barrier serves the tap in time.
func writeTraceTail(w http.ResponseWriter, r *http.Request, hub *Hub) {
	ts := hub.Trace()
	if ts == nil {
		http.Error(w, "tracing is off (run with -trace)", http.StatusNotFound)
		return
	}
	n := 256
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "invalid n", http.StatusBadRequest)
			return
		}
		n = v
	}
	if n > 4096 {
		n = 4096
	}
	var events []trace.Event
	if hub.SimDone() {
		events = ts.MergedTail(n)
	} else {
		var ok bool
		events, ok = ts.RequestTail(n, 2*time.Second)
		if !ok {
			http.Error(w, "trace tap not served (no kernel barrier within 2s)", http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(map[string]any{
		"total":  ts.Total(),
		"events": events,
	})
}

// fact is one synthesized value of the ops surface: a Prometheus series and
// a /debug/vars key over one value kept in its Go type, so both renderings
// print it alike. A []any value is per shard: {shard="i"} series in
// Prometheus, an array in JSON.
type fact struct {
	prom, key, help, kind string
	value                 any
}

// section is one source of synthesized facts, named as its /debug/vars
// section.
type section struct {
	name  string
	facts []fact
}

// sections lists the hub's synthesized sources in /metrics order: the kernel
// probe and the health accumulators once bound, and the process always.
func sections(hub *Hub) []section {
	var out []section
	if t := hub.Timing(); t != nil {
		out = append(out, section{"kernel", kernelFacts(t)})
	}
	if h := hub.Health(); h != nil {
		out = append(out, section{"health", healthFacts(h)})
	}
	return append(out, section{"process", processFacts(hub)})
}

func kernelFacts(t *sim.Timing) []fact {
	shardExec := make([]any, t.Shards())
	shardEvents := make([]any, t.Shards())
	for i := range shardExec {
		shardExec[i] = float64(t.ShardExecNs(i)) / 1e9
		shardEvents[i] = t.ShardEvents(i)
	}
	return []fact{
		{"nylon_kernel_events_total", "events_processed", "events processed as of the latest barrier", "counter", t.Events()},
		{"nylon_kernel_exec_seconds_total", "exec_seconds", "shard execute-phase wall time (summed across shards)", "counter", float64(t.ExecNs()) / 1e9},
		{"nylon_kernel_barrier_seconds_total", "barrier_seconds", "single-threaded barrier wall time", "counter", float64(t.BarrierNs()) / 1e9},
		{"nylon_kernel_windows_total", "windows", "lookahead windows executed", "counter", t.Windows()},
		{"nylon_kernel_pending_events", "pending_events", "kernel queue depth at the latest barrier", "gauge", t.PendingEvents()},
		{"nylon_kernel_virtual_time_ms", "virtual_time_ms", "virtual clock at the latest barrier", "gauge", t.VirtualMs()},
		{"nylon_kernel_shard_exec_seconds_total", "shard_exec_seconds", "per-shard execute-phase wall time", "counter", shardExec},
		{"nylon_kernel_shard_events_total", "shard_events", "per-shard events executed", "counter", shardEvents},
	}
}

func healthFacts(h *Health) []fact {
	maxDeg, isolated := h.IndegreeStats()
	return []fact{
		{"nylon_health_alive_peers", "alive_peers", "alive peer population", "gauge", h.Alive()},
		{"nylon_health_total_peers", "total_peers", "total peers ever attached", "gauge", h.Total()},
		{"nylon_health_view_entries", "view_entries", "view occupancy across all views (dead views freeze)", "gauge", h.Entries()},
		{"nylon_health_view_entries_alive", "view_entries_alive", "view occupancy of alive peers' views", "gauge", h.AliveEntries()},
		{"nylon_health_dead_entries", "dead_entries", "view entries frozen inside departed peers' views", "gauge", h.DeadEntries()},
		{"nylon_health_dead_refs", "dead_refs", "view entries referencing departed peers", "gauge", h.DeadRefs()},
		{"nylon_health_indegree_max", "indegree_max", "maximum indegree across peers", "gauge", maxDeg},
		{"nylon_health_isolated_peers", "isolated_peers", "alive peers no view references", "gauge", isolated},
	}
}

func processFacts(hub *Hub) []fact {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []fact{
		{"nylon_heap_alloc_bytes", "heap_alloc_bytes", "process heap in use", "gauge", ms.HeapAlloc},
		{"nylon_goroutines", "goroutines", "live goroutines", "gauge", runtime.NumGoroutine()},
		{"nylon_uptime_seconds", "uptime_seconds", "seconds since the hub was created", "gauge", hub.Uptime().Seconds()},
	}
}

// values maps each fact's /debug/vars key to its value.
func values(facts []fact) map[string]any {
	out := make(map[string]any, len(facts))
	for _, f := range facts {
		out[f.key] = f.value
	}
	return out
}

// HealthValues returns the health accumulators as the /debug/vars health
// section: the health object of a flight bundle.
func HealthValues(h *Health) map[string]any { return values(healthFacts(h)) }

// writePrometheus emits the registry's series followed by the synthesized
// ones.
func writePrometheus(w io.Writer, hub *Hub) {
	if reg := hub.Registry(); reg != nil {
		reg.WritePrometheus(w)
	}
	for _, s := range sections(hub) {
		for _, f := range s.facts {
			promHeader(w, f.prom, f.help, f.kind)
			perShard, ok := f.value.([]any)
			if !ok {
				fmt.Fprintf(w, "%s %v\n", f.prom, f.value)
			}
			for i, v := range perShard {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %v\n", f.prom, i, v)
			}
		}
	}
}

// WriteMetricsJSON writes the /debug/vars document to w, indented (also the
// -metrics-json dump of the CLIs): registry values, the run section, and one
// section per synthesized source.
func WriteMetricsJSON(w io.Writer, hub *Hub) error {
	doc := map[string]any{}
	if reg := hub.Registry(); reg != nil {
		doc["metrics"] = reg.JSONValues()
	}
	if info := hub.Info(); info.Shards > 0 {
		doc["run"] = map[string]any{
			"shards":    info.Shards,
			"workers":   info.Workers,
			"peers":     info.N,
			"rounds":    info.Rounds,
			"period_ms": info.PeriodMs,
		}
	}
	for _, s := range sections(hub) {
		doc[s.name] = values(s.facts)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
