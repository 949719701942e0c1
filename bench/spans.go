package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval of the traced pass: what ran, when, and the
// span that caused it.
type span struct {
	Name     string
	Workload string
	Start    time.Duration // since the recorder's epoch
	End      time.Duration
	Parent   int // index into the recorder's spans, -1 for a root
	Lane     int // Chrome tid: 0 the benchmark's main goroutine, 1 the node under test
}

// spanRecorder keeps spans in memory and writes them out when the benchmark
// ends. A nil recorder records nothing, so end-to-end runs pay one nil check
// per span site.
type spanRecorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Start: time.Since(r.epoch), Parent: parent})
	return len(r.spans) - 1
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = time.Since(r.epoch)
}

// record adds a completed span measured by the caller.
func (r *spanRecorder) record(name string, parent, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Lane: lane})
}

// chromeEvent is one Chrome trace_event "complete" event, the format
// Perfetto and chrome://tracing load (and the repo's flight bundles use).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace_event JSON.
func (r *spanRecorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	events := make([]chromeEvent, 0, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"workload": s.Workload, "id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
			args["parent_name"] = r.spans[s.Parent].Name
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
