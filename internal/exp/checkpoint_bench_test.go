package exp

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/view"
)

// world100k builds the headline 100k-peer world with checkpointing armed and
// runs it to its horizon, returning it with the mean wall time of one of its
// simulated rounds: the fixture of the two checkpoint benchmarks, and what
// their numbers are paid against.
func world100k(b *testing.B) (st *runState, end int64, roundSeconds float64) {
	if testing.Short() {
		b.Skip("100k-peer world skipped in -short mode")
	}
	st = wireWorld(b, Config{
		N: 100_000, Rounds: 20, NATRatio: 0.7, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 1, Shards: 32,
		Checkpoint: &CheckpointSpec{Dir: b.TempDir()},
	})
	end = int64(st.cfg.Rounds) * st.cfg.PeriodMs
	simStart := time.Now()
	st.kern.RunUntil(end)
	return st, end, time.Since(simStart).Seconds() / float64(st.cfg.Rounds)
}

// BenchmarkSnapshot100kPeers measures what one checkpoint of the headline
// 100k-peer world costs, through writeSnapshot — the very call the barrier
// hook makes: canonical serialization streamed through sha256 into an atomic
// file write. The world is built once and run to its horizon outside the
// timer; each iteration captures and writes one snapshot. payload-bytes
// reports the capture size (the on-disk file adds the 54-byte envelope),
// s/round what one simulated round of the same world took during set-up.
// Skipped under -short like the other 100k benchmarks.
func BenchmarkSnapshot100kPeers(b *testing.B) {
	st, end, roundSeconds := world100k(b)
	var path string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if path, err = st.writeSnapshot(end); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()-int64(len(snapshot.Magic))-8-sha256.Size), "payload-bytes")
	// What the capture is paid against: one simulated round of this world on
	// this host (mean of the set-up run's rounds).
	b.ReportMetric(roundSeconds, "s/round")
}

// BenchmarkResume100kPeers is the other direction: each iteration resumes the
// snapshot BenchmarkSnapshot100kPeers writes, through the steps of ResumeFile,
// and reports where the time went — verify-s (snapshot.Open: the hashing
// pass), restore-s (the second pass streamed through the decoder into a new
// world) and measure-s (finish: the snapshot is of the horizon, so no round is
// left to simulate and the rest is the final measure). B/op is everything a
// resume allocates, the rebuilt world included; the snapshot itself accounts
// for two 1 MiB read buffers of it.
func BenchmarkResume100kPeers(b *testing.B) {
	st, end, roundSeconds := world100k(b)
	path, err := st.writeSnapshot(end)
	if err != nil {
		b.Fatal(err)
	}
	workers := st.cfg.Workers
	st = nil // the resumed worlds are the ones to keep in memory
	var verify, restore, measure time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		r, err := snapshot.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		resumed, err := restoreWorld(r.Codec(), ResumeOptions{Workers: workers})
		r.Close()
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := resumed.runToHorizon(); err != nil {
			b.Fatal(err)
		}
		verify, restore, measure = verify+t1.Sub(t0), restore+t2.Sub(t1), measure+time.Since(t2)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(verify.Seconds()/n, "verify-s/op")
	b.ReportMetric(restore.Seconds()/n, "restore-s/op")
	b.ReportMetric(measure.Seconds()/n, "measure-s/op")
	b.ReportMetric(roundSeconds, "s/round")
}

// BenchmarkMeasure10kPeers times the final measure of a paper-scale world —
// the chunked walk, the cluster and in-degree maths, the chi-square — at one
// and at two workers: the one phase of a run the worker pool used to sit out.
func BenchmarkMeasure10kPeers(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			st := runWorld(b, Config{
				N: 10_000, Rounds: 20, NATRatio: 0.8, Protocol: ProtoNylon,
				Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
				EvictUnanswered: true, Seed: 1, Workers: workers, Shards: 8,
			})
			end := st.kern.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := st.measure(end, *st.warmup); res.AlivePeers != 10_000 {
					b.Fatalf("measured %d alive peers", res.AlivePeers)
				}
			}
		})
	}
}
