package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

const bundle = "../../examples/scenario-lab/bundle-eclipse-r0027.json"

// TestGoldenOutput pins the summary and the causal-chain view of the corpus's
// flight bundle byte for byte.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"summary.golden", []string{"-summary", bundle}},
		{"follow_n3.golden", []string{"-follow", "n3", "-n", "5", bundle}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if status := run(tc.args, &stdout, &stderr); status != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", status, &stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", tc.golden, &stdout, want)
			}
		})
	}
}

// TestBadFileRejected pins that a file that is neither a bundle nor a
// JSON-lines trace is an error (exit 1, naming the file), not a crash.
func TestBadFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.trace")
	if err := os.WriteFile(path, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-summary", path}, &stdout, &stderr); status != 1 {
		t.Errorf("exit status %d, want 1", status)
	}
	if !strings.Contains(stderr.String(), path) {
		t.Errorf("stderr does not name the file:\n%s", &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("a rejected file printed output:\n%s", &stdout)
	}
}

// TestShardCountBounded pins that a shard count past what a run can have,
// read from a bundle or given as -shards, is an error (exit 1, naming the
// value), not a per-shard table the size of the claim.
func TestShardCountBounded(t *testing.T) {
	data, err := os.ReadFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.Replace(data, []byte(`"shards": 8,`), []byte(`"shards": 1000000000000000,`), 1)
	if bytes.Equal(forged, data) {
		t.Fatal("the bundle carries no run shard count to rewrite")
	}
	path := filepath.Join(t.TempDir(), "forged.json")
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-summary", path},
		{"-summary", "-shards", "1000000000000000", bundle},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(args, &stdout, &stderr); status != 1 {
			t.Errorf("%v: exit status %d, want 1", args, status)
		}
		if !strings.Contains(stderr.String(), "shard count 1000000000000000 outside [1,4096]") {
			t.Errorf("%v: stderr does not name the shard count:\n%s", args, &stderr)
		}
	}
}

// FuzzTraceFile runs the command on foreign files through each of its three
// readers of the events (-summary, -follow, the filtered listing): whatever
// the bytes, every call returns a status, never a panic. The corpus bundle
// seeds it cut to a few kilobytes — four trace events and no kernel
// snapshot, which the command never reads — because the fuzzer minimizes
// every new input it finds, and a 350 KB one takes it a minute.
func FuzzTraceFile(f *testing.F) {
	b, err := obs.ReadBundle(bundle)
	if err != nil {
		f.Fatal(err)
	}
	b.Trace, b.Kernel = b.Trace[:4], nil
	data, err := json.Marshal(b)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"at":50,"actor":1,"seq":1,"sub":0,"op":1,"kind":1,"hop":0,"src":1,"dst":2,"oseq":1,"path":0,"from":{"IP":16777217,"Port":1024},"to":{"IP":16777218,"Port":1024},"size":62}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "input")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"-summary", path},
			{"-follow", "n1", path},
			{"-peer", "n1", "-n", "3", path},
		} {
			run(args, io.Discard, io.Discard)
		}
	})
}
