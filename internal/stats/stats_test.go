package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestChiSquareUniformExact(t *testing.T) {
	// Perfectly uniform counts give statistic 0.
	chi2, dof, err := ChiSquareUniform([]int{10, 10, 10, 10})
	if err != nil || chi2 != 0 || dof != 3 {
		t.Errorf("ChiSquareUniform = %v, %v, %v", chi2, dof, err)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquareUniform(nil); !errors.Is(err, ErrNoData) {
		t.Error("nil counts did not yield ErrNoData")
	}
	if _, _, err := ChiSquareUniform([]int{0, 0}); !errors.Is(err, ErrNoData) {
		t.Error("all-zero counts did not yield ErrNoData")
	}
	if _, _, err := ChiSquareUniform([]int{1, -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestChiSquareUniformOKAcceptsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		counts[rng.Intn(100)]++
	}
	ok, err := ChiSquareUniformOK(counts)
	if err != nil || !ok {
		t.Errorf("uniform counts rejected: ok=%v err=%v", ok, err)
	}
}

func TestChiSquareUniformOKRejectsSkew(t *testing.T) {
	counts := make([]int, 100)
	for i := range counts {
		counts[i] = 100
	}
	counts[0] = 5000 // heavy skew
	ok, err := ChiSquareUniformOK(counts)
	if err != nil || ok {
		t.Errorf("skewed counts accepted: ok=%v err=%v", ok, err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

func TestQuantileExact(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
		{-0.5, 1}, {1.5, 4}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	// A singleton answers every quantile with itself.
	for _, q := range []float64{0, 0.5, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile([7], %v) = %v", q, got)
		}
	}
}

func TestQuantileGuards(t *testing.T) {
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(nil) = %v, want NaN", got)
	}
	if got := Quantile([]float64{math.NaN(), math.NaN()}, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile(all-NaN) = %v, want NaN", got)
	}
	// NaNs are ignored, not sorted to an end.
	if got := Quantile([]float64{math.NaN(), 1, 3}, 0.5); got != 2 {
		t.Errorf("Quantile with NaN = %v, want 2", got)
	}
	// Input is not mutated.
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile mutated its input: %v", xs)
	}
}

func TestQuantiles(t *testing.T) {
	got := Quantiles([]float64{1, 2, 3, 4, 5}, []float64{0.1, 0.5, 0.9})
	want := []float64{1.4, 3, 4.6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := Quantiles(nil, []float64{0.5}); !math.IsNaN(out[0]) {
		t.Errorf("Quantiles(nil) = %v, want [NaN]", out)
	}
}

func TestPerRoundQuantiles(t *testing.T) {
	runs := [][]float64{
		{1, 10, 100},
		{3, 30, 300},
		{2, 20, 200},
	}
	band := PerRoundQuantiles(runs, []float64{0, 0.5, 1})
	if len(band) != 3 {
		t.Fatalf("band has %d rounds, want 3", len(band))
	}
	want := [][]float64{{1, 2, 3}, {10, 20, 30}, {100, 200, 300}}
	for r := range want {
		for i := range want[r] {
			if band[r][i] != want[r][i] {
				t.Errorf("band[%d][%d] = %v, want %v", r, i, band[r][i], want[r][i])
			}
		}
	}
	// Ragged runs contribute to the indices they reach.
	band = PerRoundQuantiles([][]float64{{1, 5}, {3}}, []float64{0.5})
	if band[0][0] != 2 || band[1][0] != 5 {
		t.Errorf("ragged band = %v, want [[2] [5]]", band)
	}
	// Empty input yields an empty band, not a panic.
	if band = PerRoundQuantiles(nil, []float64{0.5}); len(band) != 0 {
		t.Errorf("PerRoundQuantiles(nil) = %v, want empty", band)
	}
}

func TestChiSquareCriticalMonotonic(t *testing.T) {
	// Critical value grows with dof.
	prev := 0.0
	for dof := 10.0; dof <= 1000; dof *= 2 {
		c := chiSquareCritical(dof, 2.326)
		if c <= prev {
			t.Fatalf("critical value not monotonic at dof=%v: %v <= %v", dof, c, prev)
		}
		prev = c
	}
	// Sanity: for dof=100 the 1% critical value is about 135.8.
	c := chiSquareCritical(100, 2.326)
	if c < 130 || c > 142 {
		t.Errorf("critical(100) = %v, want ≈135.8", c)
	}
}
