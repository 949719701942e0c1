package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// schemaVersion names the result-file format -compare reads.
const schemaVersion = "nylon-bench/v1"

// doc is one result file: the machine it ran on and one report per workload
// run (untraced and traced runs of a workload are separate reports).
type doc struct {
	Schema    string            `json:"schema"`
	Machine   fingerprint       `json:"machine"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadReport `json:"workloads"`
}

// fingerprint is the machine and build a result was measured on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// stat is one metric of one workload run. The run's value is the median of
// its repeats; the quartiles and the repeat count stand beside it.
type stat struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Samples are the per-repeat values, kept so -compare can tell
	// overlapping runs from separated ones.
	Samples []float64 `json:"samples,omitempty"`
}

// workloadReport is the outcome of one workload process.
type workloadReport struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	// GOMAXPROCS is what the workload's process ran with (a workload may
	// override the benchmark's default, see workloadDef.procs).
	GOMAXPROCS int `json:"gomaxprocs"`
	Repeats    int `json:"repeats"`
	Attempted  int `json:"attempted"`
	Failed     int `json:"failed"`
	// Failures explains every failed operation (first few).
	Failures []string `json:"failures,omitempty"`
	// Digest is the sha256 of the serialised result all repeats agreed on
	// (empty on live-shuffle-loopback, which has no deterministic output).
	Digest string `json:"digest,omitempty"`
	// Notes carries workload facts a reader needs beside the numbers
	// (network state, sample counts, event totals).
	Notes   map[string]string `json:"notes,omitempty"`
	Metrics []stat            `json:"metrics"`
	// SpanFile is the Chrome trace_event file of a traced run.
	SpanFile string `json:"span_file,omitempty"`

	// modelIn carries what the interaction model needs beside the metrics.
	modelIn map[string]float64
}

func (r *workloadReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *workloadReport) note(key, format string, args ...any) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[key] = fmt.Sprintf(format, args...)
}

// add records a metric from its per-repeat samples.
func (r *workloadReport) add(name string, samples ...float64) {
	spec, ok := findSpec(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	q1, med, q3 := quartiles(samples)
	r.Metrics = append(r.Metrics, stat{Name: name, Unit: spec.Unit, Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples})
}

func (r *workloadReport) metric(name string) (stat, bool) {
	if name == "failed_ops_share" && r.Attempted > 0 {
		// Derived, so a failure found after the run (the cross-workload
		// digest check) still counts.
		share := float64(r.Failed) / float64(r.Attempted)
		return stat{Name: name, Unit: "ratio", Median: share, Q1: share, Q3: share, N: 1, Samples: []float64{share}}, true
	}
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return stat{}, false
}

// contractLine renders the one-line JSON object the driver reads: every name
// of the wanted list, with 0 for a metric the workload does not measure.
func (r *workloadReport) contractLine(want []metricSpec) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]val{}}
	for _, spec := range want {
		m, _ := r.metric(spec.Name)
		out.Metrics[spec.Name] = val{Value: m.Median, Unit: spec.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}

// printTable writes the human-readable form of a report.
func (r *workloadReport) printTable(w io.Writer) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, GOMAXPROCS %d, %d repeats, %d ops attempted, %d failed)\n", r.Workload, kind, r.Seed, r.GOMAXPROCS, r.Repeats, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "   digest %s\n", r.Digest)
	}
	for _, k := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "   %s: %s\n", k, r.Notes[k])
	}
	fmt.Fprintf(w, "   %-34s %16s %-9s %16s %16s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
	share, _ := r.metric("failed_ops_share")
	for _, m := range append(r.Metrics[:len(r.Metrics):len(r.Metrics)], share) {
		fmt.Fprintf(w, "   %-34s %16s %-9s %16s %16s %4d\n", m.Name, num(m.Median), m.Unit, num(m.Q1), num(m.Q3), m.N)
	}
}

// num prints a value with enough digits to compare runs and no more.
func num(v float64) string {
	switch a := v; {
	case a == 0:
		return "0"
	case a >= 1e6 || a <= -1e6:
		return fmt.Sprintf("%.0f", v)
	case a >= 100 || a <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// machine gathers the fingerprint every result file carries.
func machine() fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit returns the checked-out commit, or "unknown" outside a git
// repository (the benchmark driver's checkouts are plain directories).
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeDoc(path string, d *doc) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDoc(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaVersion)
	}
	return &d, nil
}
