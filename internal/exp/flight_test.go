package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestFlightRecorderBundle arms the flight recorder on the storm corpus
// with triggers the disruption is guaranteed to cross, and checks the full
// forensic path: bundles land in the directory with deterministic names,
// parse back through obs.ReadBundle, and carry a verifiable trace tail,
// drop counters matching the run's DropStats, the health series up to the
// trigger, and the run descriptor. The Chrome sibling must be valid JSON.
func TestFlightRecorderBundle(t *testing.T) {
	storm, err := scenario.Load("../../examples/scenario-lab/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := corpusCfg()
	cfg.Scenario = storm
	cfg.Rounds = 80
	cfg.Flight = &obs.FlightSpec{
		Dir:      dir,
		Triggers: obs.Triggers{StallRounds: 1, StallBelow: 0.97, LeakCheck: true},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bundles) == 0 {
		t.Fatal("storm run with a 0.97 stall threshold fired no trigger")
	}
	// Flight implies tracing even though TraceCapacity was never set.
	if len(res.Trace) == 0 {
		t.Fatal("flight-armed run recorded no trace")
	}

	path := res.Bundles[0]
	if filepath.Dir(path) != dir {
		t.Fatalf("bundle %s not in %s", path, dir)
	}
	b, err := obs.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Trigger.Name != obs.TriggerStall {
		t.Errorf("trigger %q, want %q", b.Trigger.Name, obs.TriggerStall)
	}
	if want := filepath.Join(dir, "bundle-recovery-stall-r0000.json"); b.Trigger.Round > 0 {
		want = filepath.Join(dir, "bundle-recovery-stall-r"+padRound(b.Trigger.Round)+".json")
		if path != want {
			t.Errorf("bundle path %s, want deterministic %s", path, want)
		}
	}
	if b.Run.Seed != cfg.Seed || b.Run.N != cfg.N || b.Run.Protocol != cfg.Protocol.String() || b.Run.Scenario != storm.Name {
		t.Errorf("run descriptor %+v does not pin the config", b.Run)
	}
	if len(b.Run.Config) == 0 {
		t.Error("bundle carries no serialized config")
	}
	if len(b.Trace) == 0 {
		t.Error("bundle carries no trace tail")
	}
	if alive, _ := b.Health["alive_peers"].(float64); alive == 0 {
		t.Errorf("bundle health snapshot empty: %+v", b.Health)
	}
	if b.Kernel == nil || b.Kernel.Events == 0 || len(b.Kernel.WindowSamples) == 0 {
		t.Error("bundle kernel snapshot empty")
	}
	var series []SamplePoint
	if err := json.Unmarshal(b.Series, &series); err != nil {
		t.Fatalf("bundle series does not parse as []SamplePoint: %v", err)
	}
	if len(series) == 0 || series[len(series)-1].Round != b.Trigger.Round {
		t.Errorf("series ends at round %d, trigger fired at %d", series[len(series)-1].Round, b.Trigger.Round)
	}
	for _, info := range trace.DropCauses {
		if _, ok := b.Drops[info.Metric]; !ok {
			t.Errorf("bundle drops missing %s", info.Metric)
		}
	}

	// The frozen trace tail must be internally consistent.
	_, byID := trace.Chains(b.Trace)
	for id, chain := range byID {
		if _, err := trace.VerifyChain(chain); err != nil {
			t.Fatalf("bundle chain %v: %v", id, err)
		}
	}

	// Chrome sibling: valid trace_event JSON next to the raw bundle.
	chrome := path[:len(path)-len(".json")] + ".trace.json"
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome export invalid: %v", err)
	}
	if len(events) < len(b.Trace) {
		t.Errorf("chrome export has %d events for a %d-event tail", len(events), len(b.Trace))
	}
}

// TestFlightDeterministic pins that the recorder itself is deterministic:
// the same (Config, Scenario, Seed) fires the same triggers at the same
// rounds, producing the same bundle filenames and byte-identical measured
// results, at different worker/shard shapes.
func TestFlightDeterministic(t *testing.T) {
	storm, err := scenario.Load("../../examples/scenario-lab/storm.json")
	if err != nil {
		t.Fatal(err)
	}
	base := corpusCfg()
	base.Scenario = storm
	base.Rounds = 80
	run := func(workers, shards int) ([]string, Result) {
		t.Helper()
		dir := t.TempDir()
		cfg := base
		cfg.Workers, cfg.Shards = workers, shards
		cfg.Flight = &obs.FlightSpec{Dir: dir, Triggers: obs.Triggers{StallRounds: 1, StallBelow: 0.97}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(res.Bundles))
		for i, b := range res.Bundles {
			names[i] = filepath.Base(b)
		}
		res.Bundles = nil
		return names, normalize(res)
	}
	wantNames, wantRes := run(1, 8)
	if len(wantNames) == 0 {
		t.Fatal("no bundles fired")
	}
	gotNames, gotRes := run(8, 16)
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Errorf("bundle names differ across shapes: %v vs %v", wantNames, gotNames)
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Error("flight-armed results differ across shapes")
	}
}

func padRound(r int) string {
	s := ""
	for d := 1000; d >= 1; d /= 10 {
		s += string(rune('0' + (r/d)%10))
	}
	return s
}
