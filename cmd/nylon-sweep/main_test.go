package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const labDir = "../../examples/scenario-lab"

// neverStop stands in for cliutil.NotifyStop in runs nothing interrupts.
func neverStop(io.Writer, string) (context.Context, func() bool) {
	return context.Background(), func() bool { return false }
}

// wallTail is the machine-dependent end of the "# jobs: …" line: wall time,
// resolved worker count, run directory.
var wallTail = regexp.MustCompile(`(?m)^(# jobs: .*) in \S+ \(\d+ workers\) → .*$`)

func sweepArgs(spec, out string, extra ...string) []string {
	return append([]string{"-spec", spec, "-n", "120", "-rounds", "100", "-seeds", "1", "-out", out}, extra...)
}

// TestGoldenReportAndResume pins the text report byte for byte (the golden is
// what the binary printed before main became run), then the two faces of
// -resume: the same spec re-aggregates from the cache without running a job,
// an edited spec is refused with both hashes named.
func TestGoldenReportAndResume(t *testing.T) {
	out := t.TempDir()
	spec := filepath.Join(labDir, "sweep.json")
	want, err := os.ReadFile(filepath.Join("testdata", "sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if status := run(sweepArgs(spec, out), &stdout, &stderr, neverStop); status != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", status, &stderr)
	}
	got := wallTail.ReplaceAll(stdout.Bytes(), []byte("$1 in <masked>"))
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from sweep.golden:\n--- got\n%s--- want\n%s", got, want)
	}

	stdout.Reset()
	if status := run(sweepArgs(spec, out, "-resume"), &stdout, &stderr, neverStop); status != 0 {
		t.Fatalf("-resume: exit status %d, stderr:\n%s", status, &stderr)
	}
	got = wallTail.ReplaceAll(stdout.Bytes(), []byte("$1 in <masked>"))
	cached := bytes.Replace(want, []byte("8 ran, 0 cached"), []byte("0 ran, 8 cached"), 1)
	if !bytes.Equal(got, cached) {
		t.Errorf("-resume did not re-aggregate the cached run:\n--- got\n%s--- want\n%s", got, cached)
	}

	// The same corpus under an edited spec, in a directory of its own.
	edited := t.TempDir()
	raw, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["base"].(map[string]any)["view_size"] = 14
	for _, name := range doc["scenarios"].([]any) {
		data, err := os.ReadFile(filepath.Join(labDir, name.(string)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(edited, name.(string)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, _ = json.Marshal(doc)
	if err := os.WriteFile(filepath.Join(edited, "sweep.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if status := run(sweepArgs(filepath.Join(edited, "sweep.json"), out, "-resume"), &stdout, &stderr, neverStop); status != 1 {
		t.Fatalf("-resume under an edited spec: exit status %d, want 1; stderr:\n%s", status, &stderr)
	}
	hashes := regexp.MustCompile(`different spec \(hash ([0-9a-f]{12})…, want ([0-9a-f]{12})…\)`).FindStringSubmatch(stderr.String())
	if hashes == nil || hashes[1] == hashes[2] || !bytes.Contains(want, []byte("(spec "+hashes[1]+"…)")) {
		t.Errorf("stderr does not name the run's hash and the edited spec's:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused -resume printed a report:\n%s", &stdout)
	}
}

// TestStoppedSweepClosesItsEndpoint hands run a context that is already
// cancelled — an operator's ^C before the first job — and requires status 130
// with the -http listener closed on the way out.
func TestStoppedSweepClosesItsEndpoint(t *testing.T) {
	stopped := func(io.Writer, string) (context.Context, func() bool) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, func() bool { return true }
	}
	var stdout, stderr bytes.Buffer
	status := run(sweepArgs(filepath.Join(labDir, "sweep.json"), t.TempDir(), "-http", "127.0.0.1:0"),
		&stdout, &stderr, stopped)
	if status != 130 {
		t.Fatalf("exit status %d, want 130; stderr:\n%s", status, &stderr)
	}
	if !strings.Contains(stderr.String(), "stopped (jobs: 8 total, 0 ran, 0 cached)") {
		t.Errorf("stderr does not report the stop:\n%s", &stderr)
	}
	addr := regexp.MustCompile(`listening on http://(\S+)`).FindStringSubmatch(stderr.String())
	if addr == nil {
		t.Fatalf("stderr does not name the endpoint:\n%s", &stderr)
	}
	if c, err := net.Dial("tcp", addr[1]); err == nil {
		c.Close()
		t.Errorf("the ops endpoint on %s still accepts connections after run returned", addr[1])
	}
}

// TestUsageErrors pins that a negative count exits 2 naming the flag, where it
// used to be dropped for the spec's value, and writes no run directory.
func TestUsageErrors(t *testing.T) {
	spec := filepath.Join(labDir, "sweep.json")
	for _, tc := range []struct {
		flag, value string
	}{
		{"-workers", "-3"},
		{"-seeds", "-1"},
		{"-n", "-5"},
		{"-rounds", "-1"},
		{"-checkpoint-every", "-2"},
	} {
		out := filepath.Join(t.TempDir(), "run")
		var stdout, stderr bytes.Buffer
		if status := run(sweepArgs(spec, out, tc.flag, tc.value), &stdout, &stderr, neverStop); status != 2 {
			t.Errorf("%s %s: exit status %d, want 2", tc.flag, tc.value, status)
		}
		if want := tc.flag + " " + tc.value + ": must not be negative"; !strings.Contains(stderr.String(), want) {
			t.Errorf("%s %s: stderr does not say %q:\n%s", tc.flag, tc.value, want, &stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s %s: a refused sweep wrote %s (stat err %v)", tc.flag, tc.value, out, err)
		}
	}
}

// TestSeedsOverCap pins that a seed count past exp.MaxSeeds is refused before
// the seed list is allocated: exit 1 with the count and the cap named, and no
// run directory written.
func TestSeedsOverCap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	args := []string{"-spec", filepath.Join(labDir, "sweep.json"), "-seeds", "1000000000000", "-out", out}
	var stdout, stderr bytes.Buffer
	if status := run(args, &stdout, &stderr, neverStop); status != 1 {
		t.Fatalf("exit status %d, want 1; stderr:\n%s", status, &stderr)
	}
	if !strings.Contains(stderr.String(), "seeds 1000000000000 exceeds the cap of 1000") {
		t.Errorf("stderr does not name the count and the cap:\n%s", &stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused sweep wrote %s (stat err %v)", out, err)
	}
}
