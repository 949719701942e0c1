package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/bench/probes"
	"repro/internal/exp"
)

func statOf(samples ...float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Median: med, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func TestJudge(t *testing.T) {
	wall := metricSpec{Name: "run_wall_s", Better: lower, Bound: 0.10}
	rate := metricSpec{Name: "events_per_s", Better: higher, Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: lower, Bound: 0.25, Floor: 0.2}
	failed := metricSpec{Name: "failed_ops_share", Better: lower}
	for _, tc := range []struct {
		name       string
		spec       metricSpec
		base, cand stat
		want       verdict
	}{
		{"within bound", wall, statOf(1.00, 1.01, 1.02), statOf(1.05, 1.06, 1.07), verdictOK},
		{"improvement", wall, statOf(1.00, 1.01, 1.02), statOf(0.50, 0.51, 0.52), verdictOK},
		{"tight and 20% slower", wall, statOf(1.00, 1.01, 1.02), statOf(1.20, 1.21, 1.22), verdictWorse},
		{"higher is better, 20% lower", rate, statOf(100, 101, 102), statOf(80, 81, 82), verdictWorse},
		{"higher is better, higher", rate, statOf(100, 101, 102), statOf(120, 121, 122), verdictOK},
		// Spread beyond the bound and overlapping samples: no verdict, even
		// though the medians are 20% apart.
		{"noisy and overlapping", wall, statOf(0.8, 1.0, 1.0, 1.4), statOf(0.9, 1.2, 1.2, 1.6), verdictUnresolved},
		// Noisy, but every candidate sample beats every baseline sample.
		{"noisy but separated, better", wall, statOf(1.0, 1.2, 1.5), statOf(0.5, 0.7, 0.9), verdictOK},
		// Noisy and separated on the wrong side.
		{"noisy but separated, worse", wall, statOf(0.5, 0.7, 0.9), statOf(1.0, 1.2, 1.5), verdictWorse},
		// The absolute floor: 5 ms to 50 ms is tenfold and still inside 0.2 s.
		{"near-zero set-up under the floor", setup, statOf(0.005, 0.005, 0.006), statOf(0.05, 0.05, 0.06), verdictOK},
		{"set-up beyond the floor", setup, statOf(1.0, 1.0, 1.1), statOf(1.5, 1.5, 1.6), verdictWorse},
		// Judged on the median: one slower repeat behind two good ones is
		// not a regression, though the slowest samples are 7% apart.
		{"one slower repeat", wall, statOf(1.00, 1.01, 1.02), statOf(1.01, 1.02, 1.09), verdictOK},
		{"no failures either side", failed, statOf(0), statOf(0), verdictOK},
		{"new failures", failed, statOf(0), statOf(0.01), verdictWorse},
		{"more failures", failed, statOf(0.01), statOf(0.02), verdictWorse},
		{"single samples compare by median", wall, statOf(100), statOf(105), verdictOK},
	} {
		if got, _ := judge(tc.spec, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareDocsCountsRegressions(t *testing.T) {
	report := func(wall float64, failed int) *doc {
		r := &workloadReport{Workload: wlStorm, Attempted: 10, Failed: failed, Digest: "d"}
		r.add("run_wall_s", wall, wall*1.01, wall*1.02)
		return &doc{Schema: schemaVersion, Workloads: []*workloadReport{r}}
	}
	var out bytes.Buffer
	if n := compareDocs(&out, report(1, 0), report(1.02, 0)); n != 0 {
		t.Errorf("same-speed runs: %d worse, want 0\n%s", n, out.String())
	}
	if n := compareDocs(&out, report(1, 0), report(1.5, 0)); n != 1 {
		t.Errorf("50%% slower: %d worse, want 1", n)
	}
	out.Reset()
	if n := compareDocs(&out, report(1, 0), report(1, 1)); n != 1 {
		t.Errorf("a failed operation: %d worse, want 1", n)
	}
	if !strings.Contains(out.String(), "failed_ops_share") {
		t.Errorf("output does not name failed_ops_share:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

// TestDigestIgnoresExecutionShape pins what the cross-workload check rests
// on: the digest of a result is the same whatever execution shape the result
// echoes and with tracing on, and moves with the seed. The runs stay on one
// worker: that the program computes the same result on two is its own
// invariance suite's business (and a full benchmark run's), and under -race
// two workers trip over simnet's shared prefetch sink.
func TestDigestIgnoresExecutionShape(t *testing.T) {
	run := func(shards, traceCap int, seed int64) exp.Result {
		cfg := probes.PaperConfig(120, 6, 1, shards, seed)
		cfg.TraceCapacity = traceCap
		res, err := exp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(8, 0, 1)
	base := digestResult(res)
	if len(base) != 64 {
		t.Fatalf("digest %q is not a sha256 in hex", base)
	}
	if d := digestResult(run(3, 0, 1)); d != base {
		t.Errorf("digest changed with the shard count: %s vs %s", d, base)
	}
	res.Cfg.Workers = 2
	if d := digestResult(res); d != base {
		t.Errorf("digest changed with the echoed worker count: %s vs %s", d, base)
	}
	if d := digestResult(run(8, 512, 1)); d != base {
		t.Errorf("digest changed with tracing on: %s vs %s", d, base)
	}
	if d := digestResult(run(8, 0, 2)); d == base {
		t.Error("digest did not change with the seed")
	}
}
