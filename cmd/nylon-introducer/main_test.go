package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins that a seed count one join response cannot carry, or a
// member TTL that is not positive, exits 2 with the flag named before any
// socket opens.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-seeds", "100"}, "-seeds 100: need 1 to 64"},
		{[]string{"-seeds", "-1"}, "-seeds -1: need 1 to 64"},
		{[]string{"-member-ttl", "-1s"}, "-member-ttl -1s: must be positive"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr); status != 2 {
			t.Errorf("%v: exit status %d, want 2", tc.args, status)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a refused command line printed:\n%s", tc.args, &stdout)
		}
	}
}
