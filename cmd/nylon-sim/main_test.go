package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// neverStop stands in for cliutil.NotifyStop in runs nothing interrupts.
func neverStop(io.Writer, string) (context.Context, func() bool) {
	return context.Background(), func() bool { return false }
}

var throughputLine = regexp.MustCompile(`(?m)^throughput .*$`)

// TestGoldenReports pins both report shapes byte for byte, the wall-clock
// throughput line masked. The goldens are what the two binaries this one
// replaced printed for the same flags — nylon-sim for the point run,
// nylon-scenario for -f — so they also pin that the merge changed nothing.
func TestGoldenReports(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"point.golden", []string{"-n", "250", "-rounds", "60"}},
		{"storm.golden", []string{"-f", "../../examples/scenario-lab/storm.json", "-n", "250", "-rounds", "100"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(tc.args, &stdout, &stderr, neverStop); status != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", status, &stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := throughputLine.ReplaceAll(stdout.Bytes(), []byte("throughput          <masked>"))
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\n--- got\n%s--- want\n%s", tc.golden, got, want)
			}
		})
	}
}

func TestResumeRejectsExperimentFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := run([]string{"-resume", "round-00000010.snap", "-n", "5"}, &stdout, &stderr, neverStop)
	if status != 2 {
		t.Errorf("exit status %d, want 2", status)
	}
	if !strings.Contains(stderr.String(), "-n cannot be combined with -resume") {
		t.Errorf("stderr does not name the rejected flag:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected command line printed a report:\n%s", &stdout)
	}
}

// TestUsageErrors pins that a flag the run would ignore, or a size the library
// would silently replace by its default, exits 2 naming the flag before
// anything runs.
func TestUsageErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	small := []string{"-n", "20", "-rounds", "2"}
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-n", "0", "-rounds", "2"}, "-n 0: must be at least 1"},
		{[]string{"-n", "20", "-rounds", "0"}, "-rounds 0: must be at least 1"},
		{append([]string{"-view", "0"}, small...), "-view 0: must be at least 1"},
		{append([]string{"-trace", "-trace-cap", "-1"}, small...), "-trace-cap -1: must be at least 1"},
		{append([]string{"-trace-cap", "64"}, small...), "-trace-cap needs -trace or -trace-out"},
		{append([]string{"-checkpoint-every", "2"}, small...), "-checkpoint-every needs -checkpoint or -resume"},
		{append([]string{"-flight-stall", "3"}, small...), "-flight-stall needs -flight"},
		{append([]string{"-flight-leak"}, small...), "-flight-leak needs -flight"},
		{append([]string{"-f", empty, "-adversary-pct", "30"}, small...), "-adversary-pct needs -adversary"},
		{append([]string{"-f", empty, "-adversary-from", "1"}, small...), "-adversary-from needs -adversary"},
		{append([]string{"-f", empty, "-every", "-3"}, small...), "-every -3: must be at least 0"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr, neverStop); status != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, status)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a rejected command line printed a report:\n%s", tc.args, &stdout)
		}
	}
}

// TestNaNFractionRejected pins that a NaN percentage is a config error (exit
// 1, named), never a panic of the layer that would have sized a slice by it.
func TestNaNFractionRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := run([]string{"-nat", "NaN", "-n", "50", "-rounds", "2"}, &stdout, &stderr, neverStop)
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	if !strings.Contains(stderr.String(), "NATRatio NaN outside [0,1]") {
		t.Errorf("stderr does not name the rejected fraction:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected config printed a report:\n%s", &stdout)
	}
}

// TestHorizonPastClockRejected pins that a run whose last tick lands past the
// int64 clock is a config error (exit 1, naming the field), not "0 events"
// reported as a success.
func TestHorizonPastClockRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := run([]string{"-n", "20", "-rounds", "3000000000000000"}, &stdout, &stderr, neverStop)
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	if !strings.Contains(stderr.String(), "Rounds 3000000000000000 × PeriodMs 5000") {
		t.Errorf("stderr does not name the rejected field:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected config printed a report:\n%s", &stdout)
	}
}

// TestStaticRVPWithoutPublicPeerRejected pins that a static-RVP world with no
// public peer to bind natted peers to is a config error (exit 1, naming the
// protocol), not a panic of the world builder.
func TestStaticRVPWithoutPublicPeerRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	status := run([]string{"-protocol", "static-rvp", "-nat", "100", "-n", "50", "-rounds", "2"}, &stdout, &stderr, neverStop)
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	if !strings.Contains(stderr.String(), "protocol static-rvp needs a public peer") {
		t.Errorf("stderr does not name the protocol:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected config printed a report:\n%s", &stdout)
	}
}

// TestFlashCrowdPastCapRejected pins that a scenario whose flash crowd would
// take the population past the cap is a config error (exit 1, naming the
// event), not a run that tries to attach a trillion peers.
func TestFlashCrowdPastCapRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flash.json")
	if err := os.WriteFile(path, []byte(`{"events":[{"round":1,"kind":"flash_crowd","count":1000000000000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	status := run([]string{"-f", path, "-n", "4", "-rounds", "3"}, &stdout, &stderr, neverStop)
	if status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	if !strings.Contains(stderr.String(), "scenario event 0 (round 1 flash_crowd of 1000000000000 peers)") {
		t.Errorf("stderr does not name the event:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected config printed a report:\n%s", &stdout)
	}
}

// TestInterruptedRunKeepsItsProfile interrupts a profiled, checkpointing run
// at round 1 and requires what an operator's ^C must leave behind: status
// 130, the snapshot to resume from, and a CPU profile that was stopped and
// closed on the way out — complete gzip, well-formed protobuf inside.
func TestInterruptedRunKeepsItsProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	// The kernel polls Stop at every barrier, one per 50 ms latency window
	// from time zero: poll 100 is the round-1 boundary of the 5 s period.
	polls := 0
	stopAtRound1 := func(io.Writer, string) (context.Context, func() bool) {
		return context.Background(), func() bool { polls++; return polls > 100 }
	}
	var stdout, stderr bytes.Buffer
	status := run([]string{"-n", "250", "-rounds", "60", "-checkpoint", dir, "-cpuprofile", prof},
		&stdout, &stderr, stopAtRound1)
	if status != 130 {
		t.Fatalf("exit status %d, want 130; stderr:\n%s", status, &stderr)
	}
	if !strings.Contains(stderr.String(), "interrupted at round 1\n") {
		t.Errorf("stderr does not report the interruption at round 1:\n%s", &stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "round-00000001.snap")); err != nil {
		t.Errorf("no snapshot to resume from: %v", err)
	}

	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip (a profile never stopped is empty): %v", err)
	}
	raw, err := io.ReadAll(zr) // checks the trailer's CRC and length: the stream is whole
	if err != nil {
		t.Fatalf("profile is truncated: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("profile holds no message")
	}
	// A pprof Profile message has only varint and length-delimited fields
	// at top level; walk them to the end.
	for len(raw) > 0 {
		tag, n := binary.Uvarint(raw)
		if n <= 0 {
			t.Fatal("profile: malformed field tag")
		}
		raw = raw[n:]
		v, n := binary.Uvarint(raw)
		if n <= 0 {
			t.Fatal("profile: malformed varint")
		}
		raw = raw[n:]
		switch tag & 7 {
		case 0:
		case 2:
			if v > uint64(len(raw)) {
				t.Fatalf("profile: field %d claims %d bytes, %d left", tag>>3, v, len(raw))
			}
			raw = raw[v:]
		default:
			t.Fatalf("profile: field %d has wire type %d", tag>>3, tag&7)
		}
	}
}
