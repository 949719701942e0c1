package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's bound to a baseline and a candidate measurement.
//
// The candidate is worse when its median is worse than the baseline's by
// more than the bound (or the absolute floor, whichever allows more). But a
// difference the measurement cannot resolve is not a verdict either way: when
// either side's quartile spread exceeds the allowance and the two sides'
// samples overlap, the result is unresolved — unless every candidate sample
// is at least as good as every baseline sample, which no noise can explain
// away as a regression.
func judge(spec metricSpec, base, cand stat) (verdict, float64) {
	b, c := base.Median, cand.Median
	if b == 0 {
		if c == 0 {
			return verdictOK, 0
		}
		if (spec.Better == lower) == (c > 0) {
			return verdictWorse, math.Inf(1)
		}
		return verdictOK, math.Inf(-1)
	}
	scale := math.Abs(b)
	worsening := (c - b) / scale
	if spec.Better == higher {
		worsening = -worsening
	}
	allowed := math.Max(spec.Bound, spec.Floor/scale)

	spread := func(s stat) float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }
	noisy := spread(base) > allowed || (cand.Median != 0 && spread(cand) > allowed)
	if noisy && overlap(base.Samples, cand.Samples) && !allAtLeastAsGood(spec, base.Samples, cand.Samples) {
		return verdictUnresolved, worsening
	}
	if worsening > allowed {
		return verdictWorse, worsening
	}
	return verdictOK, worsening
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// overlap reports whether the two sample ranges intersect.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	alo, ahi := minMax(a)
	blo, bhi := minMax(b)
	return alo <= bhi && blo <= ahi
}

// allAtLeastAsGood reports whether every candidate sample is at least as
// good as every baseline sample.
func allAtLeastAsGood(spec metricSpec, base, cand []float64) bool {
	blo, bhi := minMax(base)
	clo, chi := minMax(cand)
	if spec.Better == lower {
		return chi <= blo
	}
	return clo >= bhi
}

// untraced returns the report of a workload's end-to-end run.
func (d *doc) untraced(workload string) *workloadReport {
	for _, r := range d.Workloads {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// compareDocs prints one line per (workload, end-to-end metric) and returns
// how many were worse. A higher failed_ops_share is always worse.
func compareDocs(w io.Writer, base, cand *doc) int {
	worse := 0
	fmt.Fprintf(w, "baseline:  commit %s, %s, GOMAXPROCS %d, seed %d\n", base.Machine.Commit, base.Machine.CPUModel, base.Machine.GOMAXPROCS, base.Seed)
	fmt.Fprintf(w, "candidate: commit %s, %s, GOMAXPROCS %d, seed %d\n", cand.Machine.Commit, cand.Machine.CPUModel, cand.Machine.GOMAXPROCS, cand.Seed)
	fmt.Fprintf(w, "%-24s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		b, c := base.untraced(wl.name), cand.untraced(wl.name)
		if b == nil || c == nil {
			continue
		}
		for _, spec := range append(append([]metricSpec(nil), commonMetrics...), nativeMetrics...) {
			if !spec.appliesTo(wl.name) {
				continue
			}
			bs, okB := b.metric(spec.Name)
			cs, okC := c.metric(spec.Name)
			if !okB || !okC {
				continue
			}
			v, change := judge(spec, bs, cs)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-24s %-26s %14s %14s %+8.1f%% %6.0f%%  %s\n", wl.name, spec.Name, num(bs.Median), num(cs.Median), 100*change, 100*spec.Bound, v)
		}
		if b.Digest != c.Digest {
			fmt.Fprintf(w, "%-24s digest differs: %.16s… vs %.16s… (expected only when behaviour changed or the seeds differ)\n", wl.name, b.Digest, c.Digest)
		}
	}
	compareExact(w, base, cand)
	return worse
}

// compareExact lists the exact per-layer counts of the traced pass that
// differ: simulated statistics repeat bit for bit, so any difference is a
// behaviour change, not noise.
func compareExact(w io.Writer, base, cand *doc) {
	for _, b := range base.Workloads {
		if !b.Traced {
			continue
		}
		for _, c := range cand.Workloads {
			if !c.Traced || c.Workload != b.Workload {
				continue
			}
			for _, spec := range layerMetrics {
				if !spec.Exact {
					continue
				}
				bs, okB := b.metric(spec.Name)
				cs, okC := c.metric(spec.Name)
				if okB && okC && bs.Median != cs.Median {
					fmt.Fprintf(w, "%-24s %-26s exact count differs: %s vs %s\n", b.Workload, spec.Name, num(bs.Median), num(cs.Median))
				}
			}
		}
	}
}

// compareFiles is the -compare entry point: exit status 1 on any regression.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readDoc(basePath)
	if err != nil {
		fatal(err)
	}
	cand, err := readDoc(candPath)
	if err != nil {
		fatal(err)
	}
	if worse := compareDocs(w, base, cand); worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}
