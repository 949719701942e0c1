package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the repository-root contract file, in its exact shape.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchWorkload  `json:"workloads"`
	EndToEnd   []benchEndToEnd  `json:"end_to_end"`
	PerLayer   []benchLayerSpec `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// wantBenchmarkJSON renders the contract file from the catalogue.
func wantBenchmarkJSON() benchmarkJSON {
	want := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, benchWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range commonMetrics {
		want.EndToEnd = append(want.EndToEnd, benchEndToEnd{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayerSpecs() {
		want.PerLayer = append(want.PerLayer, benchLayerSpec{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return want
}

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json to the catalogue in
// metrics.go and to the limits of the contract it is written to. Run with
// BENCH_WRITE_JSON=1 to regenerate the file after editing the catalogue.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("BENCH_WRITE_JSON") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with BENCH_WRITE_JSON=1 go test -run BenchmarkJSON\n got: %s\nwant: %s", got, want)
	}

	b := wantBenchmarkJSON()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's naming rule", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s breaks the contract's unit rule", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range b.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", m.Bound, m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
}
