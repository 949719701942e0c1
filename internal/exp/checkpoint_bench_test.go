package exp

import (
	"crypto/sha256"
	"os"
	"testing"
	"time"

	"repro/internal/snapshot"
	"repro/internal/view"
)

// BenchmarkSnapshot100kPeers measures what one checkpoint of the headline
// 100k-peer world costs, through writeSnapshot — the very call the barrier
// hook makes: canonical serialization streamed through sha256 into an atomic
// file write. The world is built once and run to its horizon outside the
// timer; each iteration captures and writes one snapshot. payload-bytes
// reports the capture size (the on-disk file adds the 54-byte envelope),
// s/round what one simulated round of the same world took during set-up.
// Skipped under -short like the other 100k benchmarks.
func BenchmarkSnapshot100kPeers(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-peer snapshot skipped in -short mode")
	}
	cfg := Config{
		N: 100_000, Rounds: 20, NATRatio: 0.7, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 1, Shards: 32,
		Checkpoint: &CheckpointSpec{Dir: b.TempDir()},
	}.Defaults()
	if err := cfg.validate(); err != nil {
		b.Fatal(err)
	}
	st := newRunState(cfg)
	st.build()
	st.bootstrap()
	st.schedule()
	st.armGlobals(-1)
	st.installCheckpoint(-1)
	end := int64(cfg.Rounds) * cfg.PeriodMs
	simStart := time.Now()
	st.kern.RunUntil(end)
	roundSeconds := time.Since(simStart).Seconds() / float64(cfg.Rounds)

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
