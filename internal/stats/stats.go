// Package stats provides the statistics the harness reports: the chi-square
// goodness-of-fit test of uniformity used to assess the randomness of the
// peer samples (the paper validates randomness with the diehard suite; this
// test captures the property the peer-sampling literature actually relies
// on: every peer is selected with equal probability), and the means and
// quantiles of measured series.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned when a test receives insufficient input.
var ErrNoData = errors.New("stats: not enough data")

// ChiSquareUniform performs a chi-square goodness-of-fit test of the observed
// counts against the uniform distribution. It returns the test statistic and
// the number of degrees of freedom (len(counts)-1).
func ChiSquareUniform(counts []int) (statistic float64, dof int, err error) {
	if len(counts) < 2 {
		return 0, 0, ErrNoData
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return 0, 0, errors.New("stats: negative count")
		}
		total += c
	}
	if total == 0 {
		return 0, 0, ErrNoData
	}
	expected := float64(total) / float64(len(counts))
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2, len(counts) - 1, nil
}

// ChiSquareUniformOK reports whether the observed counts pass the chi-square
// uniformity test at roughly the 0.01 significance level, using the
// Wilson–Hilferty normal approximation for the critical value (accurate for
// the large degree-of-freedom counts that arise with thousands of peers).
func ChiSquareUniformOK(counts []int) (bool, error) {
	chi2, dof, err := ChiSquareUniform(counts)
	if err != nil {
		return false, err
	}
	return chi2 <= chiSquareCritical(float64(dof), 2.326), nil
}

// chiSquareCritical approximates the upper critical value of the chi-square
// distribution with the given degrees of freedom at the significance level
// corresponding to the z-score (2.326 ≈ 1%).
func chiSquareCritical(dof, z float64) float64 {
	// Wilson–Hilferty: chi2/dof ~ N(1-2/(9 dof), 2/(9 dof)) cubed.
	t := 1 - 2/(9*dof) + z*math.Sqrt(2/(9*dof))
	return dof * t * t * t
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics (the "R-7" definition shared by numpy and R). NaN samples
// are ignored; q is clamped to [0,1]. With no remaining samples the result is
// NaN — quantiles of nothing are not a number, and callers aggregating empty
// cells should detect that rather than mistake a silent 0 for data.
func Quantile(xs []float64, q float64) float64 {
	return quantileSorted(sortedClean(xs), q)
}

// Quantiles evaluates several quantiles of xs with one sort. The result is
// index-aligned with qs; every entry is NaN when xs has no non-NaN samples.
func Quantiles(xs []float64, qs []float64) []float64 {
	s := sortedClean(xs)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// PerRoundQuantiles computes quantile bands across aligned series: out[r][i]
// is the qs[i]-quantile of the runs' values at index r — e.g. the p10/p50/p90
// biggest-cluster band at each sampled round across the seeds of a sweep
// cell. Ragged runs contribute to the indices they reach; an index no run
// reaches yields NaNs. Nil or empty input yields an empty (non-nil) band.
func PerRoundQuantiles(runs [][]float64, qs []float64) [][]float64 {
	rounds := 0
	for _, run := range runs {
		if len(run) > rounds {
			rounds = len(run)
		}
	}
	out := make([][]float64, rounds)
	col := make([]float64, 0, len(runs))
	for r := range out {
		col = col[:0]
		for _, run := range runs {
			if r < len(run) {
				col = append(col, run[r])
			}
		}
		out[r] = Quantiles(col, qs)
	}
	return out
}

// sortedClean returns a sorted copy of xs with NaNs removed.
func sortedClean(xs []float64) []float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return s
}

// quantileSorted evaluates one quantile of an already-sorted, NaN-free slice.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	var sum float64
	for _, v := range series {
		sum += v
	}
	return sum / float64(len(series))
}
