package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
