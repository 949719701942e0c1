package exp

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/snapshot"
	"repro/internal/view"
)

// TestConfigJSONStable pins the JSON shape — every key, at every depth — of a
// defaulted Config and of a Result. Three things hash or store exactly these
// encodings, none of which a tier-1 test sees drift:
//
//   - the repository benchmark's result digests (bench/workload_sim.go hashes
//     json.Marshal of the whole Result, Cfg included), which gate every perf
//     PR against its parent;
//   - the sweep's content-addressed job cache keys and resume guard
//     (configsMatch compares marshalled Configs);
//   - the Config embedded in every snapshot and flight bundle, which an older
//     file must still decode into.
//
// Adding, renaming, removing or re-tagging a serialized field is therefore a
// format change: it moves all of the above at once. If that is intended,
// regenerate testdata/config_json_keys.golden from this test's output and say
// so in the change.
func TestConfigJSONStable(t *testing.T) {
	var b strings.Builder
	for _, doc := range []struct {
		name string
		v    any
	}{
		{"exp.Config{}.Defaults()", Config{}.Defaults()},
		{"exp.Result{}", Result{}},
	} {
		data, err := json.Marshal(doc.v)
		if err != nil {
			t.Fatal(err)
		}
		var tree any
		if err := json.Unmarshal(data, &tree); err != nil {
			t.Fatal(err)
		}
		var keys []string
		var walk func(prefix string, node any)
		walk = func(prefix string, node any) {
			m, _ := node.(map[string]any)
			for k, child := range m {
				keys = append(keys, prefix+k)
				walk(prefix+k+".", child)
			}
		}
		walk("", tree)
		sort.Strings(keys)
		b.WriteString("# " + doc.name + "\n" + strings.Join(keys, "\n") + "\n")
	}
	want, err := os.ReadFile("testdata/config_json_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("serialized key set moved (see the comment on this test); now:\n%s", got)
	}
}

// TestNegativeTimingsRejected pins that a negative LatencyMs, PeriodMs,
// HoleTimeoutMs or CacheSize is an error, never the panic of the layer that
// would have met it (the kernel's lookahead window, the tick phase draw, the
// engines' constructors) — from a caller's Config through Run, and from
// foreign bytes through ResumeFile on a checksum-valid snapshot whose embedded
// config carries the value.
func TestNegativeTimingsRejected(t *testing.T) {
	base := Config{N: 30, Rounds: 6, NATRatio: 0.5, Protocol: ProtoARRG, Seed: 3}
	_, dir := runCheckpointed(t, base, 3)
	payload, err := snapshot.ReadFile(filepath.Join(dir, SnapshotFileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	// exp! tag, I64 time, then the length-prefixed config JSON.
	const hdr = 4 + 8 + 4
	rest := statePastConfig(t, payload)
	var embedded Config
	if err := json.Unmarshal(payload[hdr:len(payload)-len(rest)], &embedded); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"LatencyMs", func(c *Config) { c.LatencyMs = -1 }},
		{"PeriodMs", func(c *Config) { c.PeriodMs = -1 }},
		{"HoleTimeoutMs", func(c *Config) { c.HoleTimeoutMs = -1 }},
		{"CacheSize", func(c *Config) { c.CacheSize = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted the config")
			}

			cfg = embedded
			tc.set(&cfg)
			cfgJSON, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			forged := append([]byte(nil), payload[:4+8]...)
			forged = binary.BigEndian.AppendUint32(forged, uint32(len(cfgJSON)))
			forged = append(append(forged, cfgJSON...), rest...)
			path := filepath.Join(t.TempDir(), "forged.snap")
			if err := snapshot.WriteFile(path, forged); err != nil {
				t.Fatal(err)
			}
			if _, err := ResumeFile(path, ResumeOptions{}); err == nil {
				t.Error("ResumeFile accepted the snapshot")
			}
		})
	}
}

// FuzzConfig drives Run with foreign JSON configs: whatever the bytes, Run
// returns an error or a Result, never a panic. Worlds bigger than a fuzzer can
// run many of a second (more than 16 peers or joiners per event, 3 rounds or
// 64 shards, after defaults) are skipped, not clamped, so every input that
// runs is exactly the config it says.
func FuzzConfig(f *testing.F) {
	for _, cfg := range []Config{
		{N: 12, Rounds: 3, NATRatio: 0.7, Protocol: ProtoNylon, Selection: view.SelectRand,
			Merge: view.MergeHealer, PushPull: true, EvictUnanswered: true, Shards: 4, Workers: 2,
			SampleEveryRounds: 1, TraceCapacity: 64, VerifySamples: true, Scenario: &scenario.Scenario{
				Churn: &scenario.Churn{JoinsPerRound: 1, LeavesPerRound: 1},
				Link:  &scenario.Link{JitterMs: 80, Loss: 0.05},
				Events: []scenario.Event{
					{Round: 1, Kind: scenario.KindFlashCrowd, Count: 4},
					{Round: 2, Kind: scenario.KindPartition, Fraction: 0.25, DurationRounds: 1},
				},
			}},
		{N: 10, Rounds: 3, NATRatio: 0.5, Protocol: ProtoStaticRVP, Shards: 2, SampleEveryRounds: 1,
			Scenario: &scenario.Scenario{Adversaries: []scenario.Adversary{
				{Strategy: "lying-rvp", Fraction: 0.2},
				{Strategy: "poison-view", Fraction: 0.2, FromRound: 1},
			}}},
		{N: 16, Rounds: 3, NATRatio: 0.9, Protocol: ProtoARRG, ChurnAtRound: 2, ChurnFraction: 0.5, UPnPFraction: 0.5},
		{N: 4, Rounds: 1, Protocol: ProtoGeneric},
	} {
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		if json.Unmarshal(data, &cfg) != nil {
			return
		}
		d := cfg.Defaults()
		if d.N > 16 || d.Rounds > 3 || d.Shards > 64 {
			t.Skip("world too big to fuzz")
		}
		if d.Scenario != nil {
			for _, ev := range d.Scenario.Events {
				if ev.Count > 16 {
					t.Skip("event too big to fuzz")
				}
			}
		}
		Run(cfg)
	})
}
