package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// ckTestConfig is the shared experiment point of the checkpoint tests: small
// enough to run many times, big enough to have in-flight traffic, NAT state,
// scenario churn and adversaries in every snapshot.
func ckTestConfig(sc *scenario.Scenario) Config {
	return Config{
		N: 120, Rounds: 40, NATRatio: 0.7, Protocol: ProtoNylon,
		Selection: view.SelectRand, Merge: view.MergeHealer, PushPull: true,
		EvictUnanswered: true, Seed: 42,
		SampleEveryRounds: 10,
		Scenario:          sc,
	}
}

func ckStorm() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "ck-storm",
		Churn: &scenario.Churn{JoinsPerRound: 1, LeavesPerRound: 1, StartRound: 5},
		Link:  &scenario.Link{JitterMs: 15, Loss: 0.05},
		Events: []scenario.Event{
			{Round: 10, Kind: scenario.KindFlashCrowd, Count: 20},
			// The partition heals at round 25, after the round-20 snapshot:
			// resume must re-arm the auto-heal from the serialized healRound.
			{Round: 15, Kind: scenario.KindPartition, Fraction: 0.25, DurationRounds: 10},
		},
	}
}

func ckAdversarial() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  "ck-adversary",
		Churn: &scenario.Churn{JoinsPerRound: 1, LeavesPerRound: 1, StartRound: 5},
		Adversaries: []scenario.Adversary{
			{Strategy: "poison-view", Fraction: 0.2, FromRound: 5},
		},
	}
}

// normalizeResult strips the config echo (which legitimately differs across
// execution shapes and checkpoint wiring) so everything measured remains.
func normalizeResult(r Result) Result {
	r.Cfg = Config{}
	return r
}

// runCheckpointed runs cfg with checkpoints every everyRounds rounds into a
// fresh directory and returns the result and the directory.
func runCheckpointed(t *testing.T, cfg Config, everyRounds int) (Result, string) {
	t.Helper()
	dir := t.TempDir()
	cfg.Checkpoint = &CheckpointSpec{Dir: dir, EveryRounds: everyRounds}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	return res, dir
}

// ckProtocols and ckLegs span the grid the checkpoint suites run over: every
// engine's state walk under every kind of world state a snapshot can hold.
var ckProtocols = []Protocol{ProtoNylon, ProtoGeneric, ProtoARRG, ProtoStaticRVP}

type ckLeg struct {
	name string
	sc   *scenario.Scenario
}

func ckLegs() []ckLeg {
	return []ckLeg{{"quiescent", nil}, {"storm", ckStorm()}, {"adversary", ckAdversarial()}}
}

// TestSnapshotResumeInvariance pins the tentpole contract: a run that
// snapshots at round k and resumes is bit-identical to one that ran straight
// through — across worker and shard counts on the resuming side, for every
// protocol, for a quiescent run, a full scenario storm, and an adversarial
// cohort.
func TestSnapshotResumeInvariance(t *testing.T) {
	for _, leg := range ckLegs() {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			for _, proto := range ckProtocols {
				proto := proto
				t.Run(proto.String(), func(t *testing.T) {
					t.Parallel()
					cfg := ckTestConfig(leg.sc)
					cfg.Protocol = proto
					resumeInvariance(t, cfg)
				})
			}
		})
	}
}

// resumeInvariance runs cfg straight through, with checkpoints every 10
// rounds, and resumed from rounds 10 and 20 at four execution shapes, and
// requires one result of all of them.
func resumeInvariance(t *testing.T, cfg Config) {
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := normalizeResult(straight)

	withCk, dir := runCheckpointed(t, cfg, 10)
	if !reflect.DeepEqual(normalizeResult(withCk), want) {
		t.Fatalf("enabling checkpoints perturbed the run")
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(names) < 3 {
		t.Fatalf("expected snapshots every 10 rounds, found %v", names)
	}

	// Resume from round 10 (before the warmup baseline is taken) and
	// round 20 (after it), across execution shapes.
	for _, round := range []int{10, 20} {
		path := filepath.Join(dir, SnapshotFileName(round))
		for _, shape := range []struct{ workers, shards int }{
			{1, 1}, {8, 1}, {1, 16}, {8, 16},
		} {
			res, err := ResumeFile(path, ResumeOptions{
				Workers: shape.workers, Shards: shape.shards,
			})
			if err != nil {
				t.Fatalf("resume round %d (%d workers, %d shards): %v",
					round, shape.workers, shape.shards, err)
			}
			if !reflect.DeepEqual(normalizeResult(res), want) {
				t.Errorf("resume from round %d with %d workers, %d shards diverges from straight-through",
					round, shape.workers, shape.shards)
			}
		}
	}
}

// TestSnapshotResumeHoldsLinkDelays stops a storm world mid-round under a link
// jitter (120 ms) that exceeds the 50 ms lookahead, so the snapshot holds
// datagrams that wait across more than one barrier before the lane takes
// them, and requires resumes at one and at sixteen shards to finish as the
// straight run does.
func TestSnapshotResumeHoldsLinkDelays(t *testing.T) {
	sc := ckStorm()
	sc.Link = &scenario.Link{JitterMs: 120}
	cfg := ckTestConfig(sc)
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := stopWorld(t, cfg, 17)
	for _, shards := range []int{1, 16} {
		res, err := ResumeFile(st.ck.interrupted.Path, ResumeOptions{Shards: shards})
		if err != nil {
			t.Fatalf("resume at %d shards: %v", shards, err)
		}
		if !reflect.DeepEqual(normalizeResult(res), normalizeResult(straight)) {
			t.Errorf("resume at %d shards diverges from straight-through", shards)
		}
	}
}

// statePastConfig returns what a snapshot payload holds after the exp! tag,
// the snapshot time and the length-prefixed config JSON: the config echoes the
// writing run's Workers and Shards, everything after it is world state.
func statePastConfig(t *testing.T, payload []byte) []byte {
	t.Helper()
	const hdr = 4 + 8 + 4
	if len(payload) < hdr || string(payload[:4]) != secExp {
		t.Fatalf("payload does not open with %q", secExp)
	}
	skip := hdr + int(binary.BigEndian.Uint32(payload[4+8:]))
	if skip > len(payload) {
		t.Fatalf("config length runs past the %d-byte payload", len(payload))
	}
	return payload[skip:]
}

// TestSnapshotBytesGolden pins the format's bytes: for every protocol and
// world kind, the round-20 snapshot's state (see statePastConfig) has the
// length and SHA-256 that testdata/snapshot_sha256.golden records — generated
// by the code before the state walks replaced the hand-paired writers and
// readers — whatever the worker and shard count of the writing run. A change
// that moves these bytes is a format change: snapshots written before it no
// longer resume to the same run. If that is intended, regenerate the golden
// from this test's output and say so in the change.
func TestSnapshotBytesGolden(t *testing.T) {
	type cell struct{ name, line string }
	var cells []*cell
	// The group returns once its parallel cells have all finished.
	t.Run("grid", func(t *testing.T) {
		for _, proto := range ckProtocols {
			for _, leg := range ckLegs() {
				proto, leg := proto, leg
				c := &cell{name: proto.String() + "/" + leg.name}
				cells = append(cells, c)
				t.Run(c.name, func(t *testing.T) {
					t.Parallel()
					for _, shape := range []struct{ workers, shards int }{{1, 1}, {2, 16}} {
						cfg := ckTestConfig(leg.sc)
						cfg.Protocol = proto
						cfg.Workers, cfg.Shards = shape.workers, shape.shards
						_, dir := runCheckpointed(t, cfg, 20)
						payload, err := snapshot.ReadFile(filepath.Join(dir, SnapshotFileName(20)))
						if err != nil {
							t.Fatal(err)
						}
						state := statePastConfig(t, payload)
						line := fmt.Sprintf("%s %d %x", c.name, len(state), sha256.Sum256(state))
						if c.line == "" {
							c.line = line
						} else if line != c.line {
							t.Errorf("%d workers, %d shards wrote other bytes than 1 worker, 1 shard:\n%s\n%s",
								shape.workers, shape.shards, line, c.line)
						}
					}
				})
			}
		}
	})
	var b strings.Builder
	for _, c := range cells {
		b.WriteString(c.line + "\n")
	}
	want, err := os.ReadFile("testdata/snapshot_sha256.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("snapshot bytes moved (see the comment on this test); now:\n%s", got)
	}
}

// TestSnapshotResumeFromCheckpointOfResume pins that resuming is closed under
// itself: a snapshot written by a resumed run resumes to the same result.
func TestSnapshotResumeFromCheckpointOfResume(t *testing.T) {
	cfg := ckTestConfig(ckStorm())
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, dir := runCheckpointed(t, cfg, 10)

	dir2 := t.TempDir()
	res2, err := ResumeFile(filepath.Join(dir, SnapshotFileName(10)), ResumeOptions{
		Checkpoint: &CheckpointSpec{Dir: dir2, EveryRounds: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(res2), normalizeResult(straight)) {
		t.Fatalf("checkpointed resume diverges from straight-through")
	}
	// The resumed run's first periodic target is strictly after round 10, so
	// it must not rewrite its own source round but cover the rest.
	res3, err := ResumeFile(filepath.Join(dir2, SnapshotFileName(30)), ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(res3), normalizeResult(straight)) {
		t.Fatalf("second-generation resume diverges from straight-through")
	}
}

// TestSnapshotBranchedResume pins branch semantics: replaying from round 20
// with a different adversary fraction is deterministic (two branched replays
// agree bit for bit) and actually branches (the cohort shows up in the
// result).
func TestSnapshotBranchedResume(t *testing.T) {
	cfg := ckTestConfig(ckStorm())
	_, dir := runCheckpointed(t, cfg, 10)
	path := filepath.Join(dir, SnapshotFileName(20))

	branch := ckStorm()
	branch.Adversaries = []scenario.Adversary{
		{Strategy: "poison-view", Fraction: 0.3, FromRound: 25},
	}
	a, err := ResumeFile(path, ResumeOptions{Scenario: branch})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResumeFile(path, ResumeOptions{Scenario: branch, Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(a), normalizeResult(b)) {
		t.Fatalf("branched replays diverge from each other")
	}
	if a.Adversary.AdversaryCount == 0 {
		t.Fatalf("branched scenario assigned no adversaries")
	}
	straightBranch := a
	plain, err := ResumeFile(path, ResumeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(normalizeResult(straightBranch), normalizeResult(plain)) {
		t.Fatalf("branch with adversaries is identical to the unbranched resume")
	}
}

// TestResumeConfigGuard pins the sweep's cache-trust guard: resuming against
// an expectation that differs in a simulated parameter fails typed, while
// execution-shape differences pass.
func TestResumeConfigGuard(t *testing.T) {
	cfg := ckTestConfig(nil)
	_, dir := runCheckpointed(t, cfg, 10)
	path := filepath.Join(dir, SnapshotFileName(10))

	wrong := cfg
	wrong.Seed = 43
	if _, err := ResumeFile(path, ResumeOptions{Config: &wrong}); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("seed mismatch: got %v, want ErrConfigMismatch", err)
	}
	ok := cfg
	ok.Workers = 3
	ok.Shards = 2
	if _, err := ResumeFile(path, ResumeOptions{Config: &ok}); err != nil {
		t.Fatalf("execution-shape difference must match: %v", err)
	}
}

// TestResumeRejectsHostileSnapshots drives the restore path with damaged
// inputs — truncations, bit flips, a wrong version, and payload corruptions
// re-sealed under a valid checksum — and requires a typed error every time.
func TestResumeRejectsHostileSnapshots(t *testing.T) {
	cfg := ckTestConfig(ckStorm())
	_, dir := runCheckpointed(t, cfg, 10)
	path := filepath.Join(dir, SnapshotFileName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeFile(path, ResumeOptions{}); err != nil {
		t.Fatalf("pristine snapshot must resume: %v", err)
	}

	writeTemp := func(b []byte) string {
		p := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 5, len(snapshot.Magic), len(snapshot.Magic) + 8,
			len(data) / 2, len(data) - 1} {
			_, err := ResumeFile(writeTemp(data[:n]), ResumeOptions{})
			if !errors.Is(err, snapshot.ErrTruncated) {
				t.Errorf("truncation to %d bytes: got %v, want ErrTruncated", n, err)
			}
		}
	})

	t.Run("bit-flipped", func(t *testing.T) {
		// Flip one bit at positions spread across the payload and the
		// trailing checksum; every flip must fail the checksum.
		for _, pos := range []int{len(snapshot.Magic) + 8, len(data) / 3,
			len(data) / 2, len(data) - 10} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x40
			_, err := ResumeFile(writeTemp(bad), ResumeOptions{})
			if !errors.Is(err, snapshot.ErrChecksum) {
				t.Errorf("bit flip at %d: got %v, want ErrChecksum", pos, err)
			}
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		copy(bad, "nylon-snap/v9\n")
		_, err := ResumeFile(writeTemp(bad), ResumeOptions{})
		if !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	// The remaining cases corrupt the payload and re-seal it under a fresh,
	// valid envelope: the decode itself must reject them, typed, without the
	// checksum's help.
	payload, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resealed := func(mutate func(p []byte) []byte) error {
		p := filepath.Join(t.TempDir(), "resealed.snap")
		if err := snapshot.WriteFile(p, mutate(append([]byte(nil), payload...))); err != nil {
			t.Fatal(err)
		}
		_, err := ResumeFile(p, ResumeOptions{})
		return err
	}

	t.Run("payload-truncated", func(t *testing.T) {
		for frac := 1; frac < 10; frac++ {
			err := resealed(func(p []byte) []byte { return p[:len(p)*frac/10] })
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("payload truncated to %d/10: got %v, want ErrCorrupt", frac, err)
			}
		}
	})

	t.Run("payload-trailing-garbage", func(t *testing.T) {
		err := resealed(func(p []byte) []byte { return append(p, 0xff, 0xfe) })
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong-section-tag", func(t *testing.T) {
		err := resealed(func(p []byte) []byte {
			copy(p[:4], "nope")
			return p
		})
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("config-garbage", func(t *testing.T) {
		err := resealed(func(p []byte) []byte {
			// The config JSON starts after the exp! tag and the I64 time,
			// length-prefixed; stomp its opening brace.
			p[4+8+4] = '!'
			return p
		})
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("byte-blasts", func(t *testing.T) {
		// Blast 0xff swaths across the whole payload under a valid envelope.
		// Some swaths land in fields where any bits are a legal value (RNG
		// states, traffic counters) and decode into a world that merely
		// measures differently — that is fine. What must never happen is a
		// panic or an untyped error: every rejection goes through the
		// decoder's sticky ErrCorrupt (this is what keeps a hostile snapshot
		// from crashing a sweep instead of falling back to a re-run).
		step := len(payload) / 24
		for at := step; at < len(payload); at += step {
			at := at
			err := resealed(func(p []byte) []byte {
				for i := at; i < at+64 && i < len(p); i++ {
					p[i] = 0xff
				}
				return p
			})
			if err != nil && !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("garbage at %d: untyped error %v", at, err)
			}
		}
	})
}

// stopWorld runs cfg's world from time zero to the first barrier at least half
// a round past the given round, where a Stop-triggered checkpoint (into a
// temporary directory) ends the run, and returns the world as that barrier
// left it: mid-round, with datagrams in flight.
func stopWorld(tb testing.TB, cfg Config, round int) *runState {
	tb.Helper()
	spec := &CheckpointSpec{Dir: tb.TempDir()}
	cfg.Checkpoint = spec
	st := wireWorld(tb, cfg)
	stopAt := int64(round)*st.cfg.PeriodMs + st.cfg.PeriodMs/2
	spec.Stop = func() bool { return st.kern.Now() >= stopAt }
	st.kern.RunUntil(int64(st.cfg.Rounds) * st.cfg.PeriodMs)
	if st.ck.interrupted == nil {
		tb.Fatalf("run did not stop at the barrier: %v", st.ck.err)
	}
	return st
}

// snapshotPayload is the in-memory twin of writeSnapshot: the same capture
// through a zero Encoder. The streaming tests compare the file a barrier
// writes against it.
func (st *runState) snapshotPayload(now int64) []byte {
	enc := &snapshot.Encoder{}
	st.capture(enc.Codec(), now)
	return enc.Bytes()
}

// TestStreamedSnapshotMatchesEncode pins the streaming writer's contract at
// the level that matters: the file the barrier hook writes is byte-identical
// to the envelope of the whole payload encoded in memory — on worlds whose
// payload spans several chunks, stopped mid-round with datagrams in flight.
func TestStreamedSnapshotMatchesEncode(t *testing.T) {
	// sealed is the nylon-snap/v1 envelope of a payload held in memory,
	// written out longhand: magic, length, payload, SHA-256.
	sealed := func(payload []byte) []byte {
		out := binary.BigEndian.AppendUint64([]byte(snapshot.Magic), uint64(len(payload)))
		sum := sha256.Sum256(payload)
		return append(append(out, payload...), sum[:]...)
	}
	for _, leg := range ckLegs() {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			t.Parallel()
			cfg := ckTestConfig(leg.sc)
			cfg.N, cfg.Rounds = 1000, 20
			// Half a round past round 16: the storm's partition is in force,
			// the adversaries are active, shuffles are in flight.
			st := stopWorld(t, cfg, 16)

			got, err := os.ReadFile(st.ck.interrupted.Path)
			if err != nil {
				t.Fatal(err)
			}
			payload := st.snapshotPayload(st.kern.Now())
			if len(payload) < 3<<20 {
				t.Fatalf("payload of %d bytes does not span several chunks", len(payload))
			}
			if !bytes.Equal(got, sealed(payload)) {
				t.Fatalf("streamed file (%d bytes) differs from Encode of the in-memory payload (%d bytes)",
					len(got), len(payload))
			}
			names, err := os.ReadDir(st.cfg.Checkpoint.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 {
				t.Errorf("checkpoint directory holds %d entries, want the one snapshot", len(names))
			}
		})
	}
}

// TestCheckpointRemovesStaleTemps plants the temp file a SIGKILL mid-write
// leaves behind and requires the next run on the directory to remove it —
// and nothing else: finished snapshots and foreign files stay.
func TestCheckpointRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".round-00000030.snap.tmp123456789")
	keep := []string{
		filepath.Join(dir, SnapshotFileName(7)),
		filepath.Join(dir, "notes.tmp"),
		filepath.Join(dir, ".round-notes"),
	}
	for _, name := range append(keep, stale) {
		if err := os.WriteFile(name, []byte("left behind"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := ckTestConfig(nil)
	cfg.Rounds = 12
	cfg.Checkpoint = &CheckpointSpec{Dir: dir, EveryRounds: 10}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp survived: stat err = %v", err)
	}
	for _, name := range keep {
		if b, err := os.ReadFile(name); err != nil || string(b) != "left behind" {
			t.Errorf("%s was touched: %q, %v", filepath.Base(name), b, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFileName(10))); err != nil {
		t.Errorf("the run's own snapshot is missing: %v", err)
	}
}

// TestResumeFileRejectsBeforeTouchingAnything pins the order the streaming
// restore keeps: a damaged file is rejected, with its typed error, before a
// byte of it is decoded — so the hub the caller passed is still unbound and
// the checkpoint directory it named still does not exist. (A file that only
// fails its second pass is discarded with the world built from it, like a
// payload that fails to decode; by then the hub is bound.)
func TestResumeFileRejectsBeforeTouchingAnything(t *testing.T) {
	cfg := ckTestConfig(ckStorm())
	_, dir := runCheckpointed(t, cfg, 10)
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFileName(20)))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(data)-40] ^= 1 // the last payload bytes: a decoder would be done by then
	foreign := append([]byte(nil), data...)
	copy(foreign, "nylon-snap/v9\n")
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"truncated", data[:len(data)-1], snapshot.ErrTruncated},
		{"bit-flipped", flipped, snapshot.ErrChecksum},
		{"wrong-version", foreign, snapshot.ErrVersion},
		{"trailing-bytes", append(append([]byte(nil), data...), 0), snapshot.ErrCorrupt},
	} {
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		hub := obs.NewHub()
		ckDir := filepath.Join(t.TempDir(), "never-created")
		_, err := ResumeFile(path, ResumeOptions{Obs: hub, Checkpoint: &CheckpointSpec{Dir: ckDir, EveryRounds: 5}})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if hub.Health() != nil || hub.Timing() != nil {
			t.Errorf("%s: the rejected file's world was bound to the caller's hub", tc.name)
		}
		if _, err := os.Stat(ckDir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: the checkpoint directory was touched: stat err = %v", tc.name, err)
		}
	}
}

// FuzzRestore drives restore-then-run with checksum-valid but damaged
// payloads: one small storm world per protocol, stopped mid-round, is
// overwritten with patch at offset off of its state (past the config JSON,
// which has its own validation and the config-garbage case above). Whatever
// the damage, the restore either fails with snapshot.ErrCorrupt or yields a
// world that runs to its horizon; nothing panics.
func FuzzRestore(f *testing.F) {
	var payloads [][]byte // by position in ckProtocols
	for i, proto := range ckProtocols {
		cfg := ckTestConfig(ckStorm())
		cfg.N, cfg.Rounds, cfg.Protocol = 24, 30, proto
		st := stopWorld(f, cfg, 17)
		payloads = append(payloads, st.snapshotPayload(st.kern.Now()))
		f.Add(uint8(i), uint32(0), []byte(nil)) // undamaged: must restore and run
	}
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte) {
		payload := append([]byte(nil), payloads[int(which)%len(payloads)]...)
		if state := statePastConfig(t, payload); int64(off) < int64(len(state)) {
			copy(state[off:], patch)
		}
		st, err := restoreWorld(snapshot.NewDecoder(payload).Codec(), ResumeOptions{})
		if err != nil {
			if len(patch) == 0 || !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("restore of a payload with %d bytes patched: %v", len(patch), err)
			}
			return
		}
		if _, err := st.runToHorizon(); err != nil {
			t.Fatalf("restored world did not reach its horizon: %v", err)
		}
	})
}

// walkCoversEveryField fills every field of a flat record with a distinct
// non-zero value, captures it through its state walk and restores into the
// zero value: what comes back differs iff the walk skips a field.
func walkCoversEveryField[T any](t *testing.T, state func(*T, *snapshot.Codec)) {
	t.Helper()
	var want, got T
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 1.5)
		default:
			t.Fatalf("%s.%s is a %s: teach the walk and this test", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
	enc := &snapshot.Encoder{}
	state(&want, enc.Codec())
	c := snapshot.NewDecoder(enc.Bytes()).Codec()
	state(&got, c)
	if err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the walk of %s does not reach every field:\nrestored %+v\ncaptured %+v", v.Type(), got, want)
	}
}

// TestRecordWalksCoverEveryField pins the walks of the harness's flat records
// against their structs: a field added to SamplePoint or ScenarioStats and not
// to its walk fails here instead of silently reading zero after a resume.
func TestRecordWalksCoverEveryField(t *testing.T) {
	walkCoversEveryField(t, (*SamplePoint).state)
	walkCoversEveryField(t, (*ScenarioStats).state)
}
