package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutput pins both renderers byte for byte. The goldens are what
// the binary of the last commit with one generator function per figure
// printed for the same flags, so they also pin that the table and its runner
// changed nothing.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all_csv.golden", []string{"-n", "120", "-rounds", "45", "-seeds", "2", "-csv"}},
		{"fig9_text.golden", []string{"-fig", "9", "-n", "120", "-rounds", "45", "-seeds", "2"}},
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

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-fig", "5"}, `unknown figure "5" (have 2, 3, 4, c, 7, 8, 9, 10, a1, a2, a3, a4, a5, a6)`},
		{[]string{"-fig", "a5", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-fig", "a5", "-n", "50", "-rounds", "10", "-seeds", "1000000000000"}, "-seeds 1000000000000: need 1 to 1000 seeds"},
		{[]string{"-fig", "a5", "-workers", "-1"}, "-workers -1"},
		{[]string{"-fig", "a5", "-n", "0", "-rounds", "10", "-seeds", "1"}, "-n 0: must be at least 1"},
		{[]string{"-fig", "a5", "-n", "50", "-rounds", "0", "-seeds", "1"}, "-rounds 0: must be at least 1"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, status)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a rejected command line printed tables:\n%s", tc.args, &stdout)
		}
	}
}
