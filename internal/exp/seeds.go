package exp

import "repro/internal/stats"

// MaxSeeds caps the seeds of one figure run or sweep cell: 33× the paper's
// 30. Callers check a requested count against it before SeedList allocates.
const MaxSeeds = 1000

// SeedList returns the canonical seed list {1, …, n} used by the sweep CLIs
// (empty for n ≤ 0).
func SeedList(n int) []int64 {
	if n < 0 {
		n = 0
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// meanResult averages the scalar metrics of a point's per-seed results.
func meanResult(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	out := rs[0]
	vals := make([]float64, len(rs))
	mean := func(f func(Result) float64) float64 {
		for i, r := range rs {
			vals[i] = f(r)
		}
		return stats.Mean(vals)
	}
	out.BiggestCluster = mean(func(r Result) float64 { return r.BiggestCluster })
	out.StaleFraction = mean(func(r Result) float64 { return r.StaleFraction })
	out.NattedNonStale = mean(func(r Result) float64 { return r.NattedNonStale })
	out.BytesPerSecAll = mean(func(r Result) float64 { return r.BytesPerSecAll })
	out.BytesPerSecPublic = mean(func(r Result) float64 { return r.BytesPerSecPublic })
	out.BytesPerSecNatted = mean(func(r Result) float64 { return r.BytesPerSecNatted })
	out.AvgChainLen = mean(func(r Result) float64 { return r.AvgChainLen })
	out.ChiSquareStat = mean(func(r Result) float64 { return r.ChiSquareStat })
	out.CompletionRate = mean(func(r Result) float64 { return r.CompletionRate })
	out.NoRouteRate = mean(func(r Result) float64 { return r.NoRouteRate })
	ok := true
	for _, r := range rs {
		ok = ok && r.ChiSquareOK
	}
	out.ChiSquareOK = ok
	return out
}
