package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors pins the refusals: a non-positive -report exits 2 before a
// socket opens, and a config the node cannot run (a negative period, a view
// whose full shuffle outgrows a datagram) exits 1 with the field named,
// instead of panicking on the node's goroutine.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		status int
		want   string // in stderr
	}{
		{[]string{"-id", "1", "-report", "0"}, 2, "-report 0s: must be positive"},
		{[]string{"-id", "1", "-report", "-1s"}, 2, "-report -1s: must be positive"},
		{[]string{"-id", "1", "-listen", "127.0.0.1:0", "-period", "-1s"}, 1, "Config.Period -1s"},
		{[]string{"-id", "1", "-listen", "127.0.0.1:0", "-view", "118"}, 1, "Config.ViewSize 118"},
	} {
		var stdout, stderr bytes.Buffer
		if status := run(tc.args, &stdout, &stderr); status != tc.status {
			t.Errorf("%v: exit status %d, want %d", tc.args, status, tc.status)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say %q:\n%s", tc.args, tc.want, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a refused command line printed:\n%s", tc.args, &stdout)
		}
	}
}
