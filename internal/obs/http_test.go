package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/ident"
)

// boundHub builds a hub bound to a small fake run with a little traffic in
// every subsystem, so each synthesized series has something to report.
func boundHub() *Hub {
	hub := NewHub()
	hub.BindSim(RunInfo{Shards: 2, Workers: 1, N: 8, Rounds: 10, PeriodMs: 1000})
	hub.Registry().Counter("nylon_net_datagrams_sent_total", "datagrams handed to the network").Add(0, 42)
	h := hub.Health()
	for id := 1; id <= 8; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	h.Observer(0).ViewEntryAdded(1, desc(2))
	hub.PublishSample(5, 8, 1.0, 0.25)
	return hub
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return string(body)
}

func TestServeScrapesMidRun(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", boundHub())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	metrics := get(t, base+"/metrics")
	for _, series := range []string{
		"nylon_net_datagrams_sent_total 42",
		"nylon_overlay_sample_round 5",
		"nylon_overlay_stale_fraction 0.25",
		"nylon_kernel_events_total",
		"nylon_kernel_exec_seconds_total",
		"nylon_kernel_barrier_seconds_total",
		`nylon_kernel_shard_events_total{shard="1"}`,
		"nylon_health_alive_peers 8",
		"nylon_health_view_entries 1",
		"nylon_health_dead_refs 0",
		"nylon_heap_alloc_bytes",
		"nylon_uptime_seconds",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	var doc map[string]any
	if err := json.Unmarshal([]byte(get(t, base+"/debug/vars")), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	for _, section := range []string{"metrics", "kernel", "health", "run", "process"} {
		if _, ok := doc[section]; !ok {
			t.Errorf("/debug/vars missing section %q", section)
		}
	}
	if run, ok := doc["run"].(map[string]any); !ok || run["peers"] != float64(8) {
		t.Errorf("/debug/vars run section = %v, want peers=8", doc["run"])
	}

	if body := get(t, base+"/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q, want \"ok\\n\"", body)
	}
	if body := get(t, base+"/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline returned an empty body")
	}
}

func TestServeUnboundHub(t *testing.T) {
	// A hub that never saw BindSim (nylon-sweep, nylon-node) must still
	// serve: registry-only metrics plus the process series.
	hub := NewHub()
	hub.EnsureRegistry().Gauge("nylon_sweep_jobs_total", "jobs in the sweep").Set(12)
	srv, err := Serve("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	metrics := get(t, "http://"+srv.Addr+"/metrics")
	if !strings.Contains(metrics, "nylon_sweep_jobs_total 12") {
		t.Error("/metrics missing the registry gauge")
	}
	if strings.Contains(metrics, "nylon_kernel_events_total") {
		t.Error("/metrics reports kernel series for an unbound hub")
	}
	if !strings.Contains(metrics, "nylon_goroutines") {
		t.Error("/metrics missing process series")
	}
}

func TestHubDoubleBindPanics(t *testing.T) {
	hub := NewHub()
	hub.BindSim(RunInfo{Shards: 1, N: 1, Rounds: 1, PeriodMs: 1000})
	defer func() {
		if recover() == nil {
			t.Fatal("second BindSim did not panic")
		}
	}()
	hub.BindSim(RunInfo{Shards: 1, N: 1, Rounds: 1, PeriodMs: 1000})
}

// TestOpsSurfaceGolden pins the ops surface of boundHub: every /metrics
// line in order, and the key set of every /debug/vars section. The process
// series read the live process, so only their names are pinned.
func TestOpsSurfaceGolden(t *testing.T) {
	const wantMetrics = `# HELP nylon_overlay_sample_round round of the latest health sample
# TYPE nylon_overlay_sample_round gauge
nylon_overlay_sample_round 5
# HELP nylon_overlay_sample_alive_peers alive population at the latest health sample
# TYPE nylon_overlay_sample_alive_peers gauge
nylon_overlay_sample_alive_peers 8
# HELP nylon_overlay_cluster_fraction biggest-cluster fraction at the latest health sample
# TYPE nylon_overlay_cluster_fraction gauge
nylon_overlay_cluster_fraction 1
# HELP nylon_overlay_stale_fraction stale view-entry fraction at the latest health sample
# TYPE nylon_overlay_stale_fraction gauge
nylon_overlay_stale_fraction 0.25
# HELP nylon_net_datagrams_sent_total datagrams handed to the network
# TYPE nylon_net_datagrams_sent_total counter
nylon_net_datagrams_sent_total 42
# HELP nylon_kernel_events_total events processed as of the latest barrier
# TYPE nylon_kernel_events_total counter
nylon_kernel_events_total 0
# HELP nylon_kernel_exec_seconds_total shard execute-phase wall time (summed across shards)
# TYPE nylon_kernel_exec_seconds_total counter
nylon_kernel_exec_seconds_total 0
# HELP nylon_kernel_barrier_seconds_total single-threaded barrier wall time
# TYPE nylon_kernel_barrier_seconds_total counter
nylon_kernel_barrier_seconds_total 0
# HELP nylon_kernel_windows_total lookahead windows executed
# TYPE nylon_kernel_windows_total counter
nylon_kernel_windows_total 0
# HELP nylon_kernel_pending_events kernel queue depth at the latest barrier
# TYPE nylon_kernel_pending_events gauge
nylon_kernel_pending_events 0
# HELP nylon_kernel_virtual_time_ms virtual clock at the latest barrier
# TYPE nylon_kernel_virtual_time_ms gauge
nylon_kernel_virtual_time_ms 0
# HELP nylon_kernel_shard_exec_seconds_total per-shard execute-phase wall time
# TYPE nylon_kernel_shard_exec_seconds_total counter
nylon_kernel_shard_exec_seconds_total{shard="0"} 0
nylon_kernel_shard_exec_seconds_total{shard="1"} 0
# HELP nylon_kernel_shard_events_total per-shard events executed
# TYPE nylon_kernel_shard_events_total counter
nylon_kernel_shard_events_total{shard="0"} 0
nylon_kernel_shard_events_total{shard="1"} 0
# HELP nylon_health_alive_peers alive peer population
# TYPE nylon_health_alive_peers gauge
nylon_health_alive_peers 8
# HELP nylon_health_total_peers total peers ever attached
# TYPE nylon_health_total_peers gauge
nylon_health_total_peers 8
# HELP nylon_health_view_entries view occupancy across all views (dead views freeze)
# TYPE nylon_health_view_entries gauge
nylon_health_view_entries 1
# HELP nylon_health_view_entries_alive view occupancy of alive peers' views
# TYPE nylon_health_view_entries_alive gauge
nylon_health_view_entries_alive 1
# HELP nylon_health_dead_entries view entries frozen inside departed peers' views
# TYPE nylon_health_dead_entries gauge
nylon_health_dead_entries 0
# HELP nylon_health_dead_refs view entries referencing departed peers
# TYPE nylon_health_dead_refs gauge
nylon_health_dead_refs 0
# HELP nylon_health_indegree_max maximum indegree across peers
# TYPE nylon_health_indegree_max gauge
nylon_health_indegree_max 1
# HELP nylon_health_isolated_peers alive peers no view references
# TYPE nylon_health_isolated_peers gauge
nylon_health_isolated_peers 7
# HELP nylon_heap_alloc_bytes process heap in use
# TYPE nylon_heap_alloc_bytes gauge
nylon_heap_alloc_bytes <process>
# HELP nylon_goroutines live goroutines
# TYPE nylon_goroutines gauge
nylon_goroutines <process>
# HELP nylon_uptime_seconds seconds since the hub was created
# TYPE nylon_uptime_seconds gauge
nylon_uptime_seconds <process>
`
	wantVars := map[string][]string{
		"health":  {"alive_peers", "dead_entries", "dead_refs", "indegree_max", "isolated_peers", "total_peers", "view_entries", "view_entries_alive"},
		"kernel":  {"barrier_seconds", "events_processed", "exec_seconds", "pending_events", "shard_events", "shard_exec_seconds", "virtual_time_ms", "windows"},
		"metrics": {"nylon_net_datagrams_sent_total", "nylon_overlay_cluster_fraction", "nylon_overlay_sample_alive_peers", "nylon_overlay_sample_round", "nylon_overlay_stale_fraction"},
		"process": {"goroutines", "heap_alloc_bytes", "uptime_seconds"},
		"run":     {"peers", "period_ms", "rounds", "shards", "workers"},
	}

	mux := NewMux(boundHub())
	serve := func(path string) string {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.String()
	}

	var metrics strings.Builder
	for _, line := range strings.SplitAfter(serve("/metrics"), "\n") {
		for _, name := range []string{"nylon_heap_alloc_bytes", "nylon_goroutines", "nylon_uptime_seconds"} {
			if strings.HasPrefix(line, name+" ") {
				line = name + " <process>\n"
			}
		}
		metrics.WriteString(line)
	}
	if got := metrics.String(); got != wantMetrics {
		t.Errorf("/metrics drifted from the golden:\n got:\n%s\nwant:\n%s", got, wantMetrics)
	}

	var doc map[string]map[string]any
	if err := json.Unmarshal([]byte(serve("/debug/vars")), &doc); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	gotVars := map[string][]string{}
	for section, values := range doc {
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		gotVars[section] = keys
	}
	if !reflect.DeepEqual(gotVars, wantVars) {
		t.Errorf("/debug/vars keys = %v, want %v", gotVars, wantVars)
	}
}
