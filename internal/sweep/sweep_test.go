package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// testCorpus writes a tiny two-scenario corpus and returns its directory.
func testCorpus(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"crash.json": `{
			"name": "crash",
			"events": [{"round": 4, "kind": "mass_leave", "fraction": 0.5}]
		}`,
		"split.json": `{
			"name": "split",
			"events": [{"round": 3, "kind": "partition", "fraction": 0.3, "duration_rounds": 4}]
		}`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// testSpec is a 2 scenarios × 2 variants × 2 seeds sweep small enough for
// the unit suite: 8 jobs of 60 peers × 12 rounds.
func testSpec() *Spec {
	nat := 60.0
	return &Spec{
		Name:      "unit",
		Scenarios: []string{"*.json"},
		SeedList:  []int64{1, 2},
		Base: Overrides{
			N: 60, Rounds: 12, ViewSize: 6, NATPct: &nat, SampleEvery: 3,
		},
		Variants: []Variant{
			{Name: "nylon", Overrides: Overrides{Protocol: "nylon"}},
			{Name: "generic", Overrides: Overrides{Protocol: "generic"}},
		},
	}
}

func TestExpandDeterministic(t *testing.T) {
	dir := testCorpus(t)
	a, err := Expand(testSpec(), dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(testSpec(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != 8 {
		t.Fatalf("expanded %d jobs, want 8", len(a.Jobs))
	}
	if a.SpecHash != b.SpecHash {
		t.Error("same spec produced different hashes")
	}
	keys := make(map[string]bool)
	for i, job := range a.Jobs {
		if job.Key != b.Jobs[i].Key {
			t.Errorf("job %d key differs between expansions", i)
		}
		if keys[job.Key] {
			t.Errorf("duplicate job key %s", job.Key)
		}
		keys[job.Key] = true
	}
	// Grid order is scenario-major (corpus sorted by path), then variant
	// (spec order), then seed.
	want := []struct {
		sc, v string
		seed  int64
	}{
		{"crash", "nylon", 1}, {"crash", "nylon", 2},
		{"crash", "generic", 1}, {"crash", "generic", 2},
		{"split", "nylon", 1}, {"split", "nylon", 2},
		{"split", "generic", 1}, {"split", "generic", 2},
	}
	for i, w := range want {
		j := a.Jobs[i]
		if j.Scenario != w.sc || j.Variant != w.v || j.Seed != w.seed {
			t.Errorf("job %d = (%s, %s, %d), want (%s, %s, %d)", i, j.Scenario, j.Variant, j.Seed, w.sc, w.v, w.seed)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	dir := testCorpus(t)
	base, err := Expand(testSpec(), dir)
	if err != nil {
		t.Fatal(err)
	}

	// Editing a scenario file changes exactly that scenario's job keys.
	if err := os.WriteFile(filepath.Join(dir, "crash.json"),
		[]byte(`{"name":"crash","events":[{"round":4,"kind":"mass_leave","fraction":0.6}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, err := Expand(testSpec(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Jobs {
		same := base.Jobs[i].Key == edited.Jobs[i].Key
		if base.Jobs[i].Scenario == "crash" && same {
			t.Errorf("job %d (crash) key survived a scenario edit", i)
		}
		if base.Jobs[i].Scenario == "split" && !same {
			t.Errorf("job %d (split) key changed by an unrelated scenario edit", i)
		}
	}
	if base.SpecHash == edited.SpecHash {
		t.Error("spec hash survived a scenario edit")
	}

	// Changing a variant knob changes only that variant's keys.
	spec := testSpec()
	spec.Variants[0].ViewSize = 8
	varied, err := Expand(spec, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	baseAgain, err := Expand(testSpec(), testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range baseAgain.Jobs {
		same := baseAgain.Jobs[i].Key == varied.Jobs[i].Key
		if baseAgain.Jobs[i].Variant == "nylon" && same {
			t.Errorf("job %d (nylon) key survived a variant edit", i)
		}
		if baseAgain.Jobs[i].Variant == "generic" && !same {
			t.Errorf("job %d (generic) key changed by an unrelated variant edit", i)
		}
	}
}

// TestKeyCoversEveryConfigField moves each exp.Config field in turn, by
// reflection so a field added later is covered without a line here, and
// pins which ones move the job key: every field that reaches the
// simulation does, the execution shape (Workers, Shards), the observation
// (TraceCapacity) and the unserialised host wiring do not.
func TestKeyCoversEveryConfigField(t *testing.T) {
	g, err := Expand(testSpec(), testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	base := g.Jobs[0].Cfg
	baseKey, err := keyOf(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseKey != g.Jobs[0].Key {
		t.Fatalf("keyOf(job.Cfg) = %s, job.Key = %s", baseKey, g.Jobs[0].Key)
	}
	invariant := map[string]bool{"Workers": true, "Shards": true, "TraceCapacity": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base
		perturb(t, f.Name, reflect.ValueOf(&cfg).Elem().Field(i))
		key, err := keyOf(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		keep := invariant[f.Name] || f.Tag.Get("json") == "-"
		if moved := key != baseKey; moved == keep {
			t.Errorf("%s: key moved = %v, want %v", f.Name, moved, !keep)
		}
	}
}

// perturb changes v to another value of its type that Defaults keeps.
func perturb(t *testing.T, name string, v reflect.Value) {
	switch {
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float() + 0.125)
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.Kind() == reflect.Struct:
		perturb(t, name, v.Field(0))
	case v.Kind() == reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	default:
		t.Fatalf("%s: no perturbation for kind %v", name, v.Kind())
	}
}

// sweepOnce expands and executes the test sweep in dir, returning the
// artifact JSON and the execution stats.
func sweepOnce(t *testing.T, corpus, run string, opts Options) ([]byte, Stats) {
	t.Helper()
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := Execute(g, run, opts)
	if err != nil {
		t.Fatal(err)
	}
	art, err := Aggregate(g, results)
	if err != nil {
		t.Fatal(err)
	}
	data, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, st
}

func TestSweepArtifactByteIdentical(t *testing.T) {
	corpus := testCorpus(t)
	a, stA := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 4})
	b, stB := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 1})
	if !bytes.Equal(a, b) {
		t.Errorf("fresh runs produced different artifacts:\n%s\n---\n%s", a, b)
	}
	if stA.Ran != 8 || stA.Cached != 0 || stB.Ran != 8 {
		t.Errorf("fresh runs: stats %+v, %+v", stA, stB)
	}

	// Sanity on content: every cell and band present, cluster fractions in
	// range.
	s := string(a)
	for _, want := range []string{`"crash"`, `"split"`, `"nylon"`, `"generic"`, `"p10"`, `"p50"`, `"p90"`} {
		if !strings.Contains(s, want) {
			t.Errorf("artifact missing %s", want)
		}
	}
}

// cancelAfter is a progress log that cancels a sweep's context once the given
// number of jobs have reported: a deterministic kill for a one-worker sweep.
type cancelAfter struct {
	jobs   int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	if w.jobs--; w.jobs == 0 {
		w.cancel()
	}
	return len(p), nil
}

func TestSweepResume(t *testing.T) {
	corpus := testCorpus(t)
	run := t.TempDir()

	// A sweep killed after 3 of 8 jobs: the progress log cancels the
	// shutdown context on the third job's line, so exactly the first three
	// missing jobs (workers=1 dequeues in grid order) are persisted.
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, st, err := Execute(g, run, Options{Workers: 1, Ctx: ctx, Log: &cancelAfter{jobs: 3, cancel: cancel}})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("cancelled run: err = %v, want ErrStopped", err)
	}
	if st.Ran != 3 || st.Cached != 0 {
		t.Fatalf("cancelled run stats %+v, want 3 ran", st)
	}

	// The rerun completes the remaining 5 without touching the first 3 and
	// aggregates to the same bytes as an uninterrupted sweep.
	resumed, st := sweepOnce(t, corpus, run, Options{Workers: 2})
	if st.Ran != 5 || st.Cached != 3 {
		t.Errorf("resume stats %+v, want 5 ran / 3 cached", st)
	}
	fresh, _ := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 4})
	if !bytes.Equal(resumed, fresh) {
		t.Error("resumed artifact differs from an uninterrupted sweep")
	}

	// A third invocation re-runs nothing and re-aggregates instantly.
	again, st := sweepOnce(t, corpus, run, Options{Workers: 2})
	if st.Ran != 0 || st.Cached != 8 {
		t.Errorf("warm rerun stats %+v, want 0 ran / 8 cached", st)
	}
	if !bytes.Equal(again, fresh) {
		t.Error("warm rerun artifact differs")
	}
}

func TestCacheIgnoresCorruptFiles(t *testing.T) {
	run := t.TempDir()
	cache, err := OpenCache(run)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store("k1", &exp.Result{BiggestCluster: 0.5}); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Load("k1")
	if !ok || got.BiggestCluster != 0.5 {
		t.Fatalf("round trip failed: %+v, %v", got, ok)
	}
	if _, ok := cache.Load("absent"); ok {
		t.Error("absent key reported as hit")
	}
	// A truncated file (killed mid-write without the atomic rename) and a
	// file whose content does not match its name are both misses.
	if err := os.WriteFile(filepath.Join(run, "results", "k2.json"), []byte(`{"key":"k2","scen`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load("k2"); ok {
		t.Error("truncated file reported as hit")
	}
	if err := os.WriteFile(filepath.Join(run, "results", "k3.json"), []byte(`{"key":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load("k3"); ok {
		t.Error("mismatched key reported as hit")
	}
}

func TestSpecValidation(t *testing.T) {
	longList := strings.Repeat("1,", exp.MaxSeeds) + "2" // rejected by length before duplicates
	cases := []struct {
		name string
		json string
		want string // in the error
	}{
		{"no scenarios", `{"variants":[{"name":"a"}],"seeds":1}`, "spec has no scenario patterns"},
		{"no variants", `{"scenarios":["*.json"],"seeds":1}`, "spec has no variants"},
		{"no seeds", `{"scenarios":["*.json"],"variants":[{"name":"a"}]}`, "needs seeds > 0 or a non-empty seed_list"},
		{"negative seeds", `{"scenarios":["*.json"],"seeds":-1,"variants":[{"name":"a"}]}`, "seeds -1 is negative"},
		{"unnamed variant", `{"scenarios":["*.json"],"seeds":1,"variants":[{}]}`, "variant 0 has no name"},
		{"duplicate variant", `{"scenarios":["*.json"],"seeds":1,"variants":[{"name":"a"},{"name":"a"}]}`, `duplicate variant name "a"`},
		{"duplicate seed", `{"scenarios":["*.json"],"seed_list":[1,1],"variants":[{"name":"a"}]}`, "duplicate seed 1 in seed_list"},
		{"unknown field", `{"scenarios":["*.json"],"seeds":1,"variants":[{"name":"a"}],"typo":1}`, `unknown field "typo"`},
		{"bad protocol", `{"scenarios":["*.json"],"seeds":1,"variants":[{"name":"a","protocol":"nope"}]}`, `variant "a": exp: unknown protocol "nope"`},
		{"seeds over cap", `{"scenarios":["*.json"],"seeds":2000,"variants":[{"name":"a"}]}`,
			"seeds 2000 exceeds the cap of 1000"},
		{"seed_list over cap", `{"scenarios":["*.json"],"seed_list":[` + longList + `],"variants":[{"name":"a"}]}`,
			"seed_list of 1001 seeds exceeds the cap of 1000"},
		// Cells exp's validator refuses, each beside a valid cell that
		// would run first if expansion let them through.
		{"nat over 100%", `{"scenarios":["*.json"],"seeds":1,"base":{"n":20,"rounds":4},"variants":[{"name":"ok"},{"name":"bad","nat_pct":150}]}`,
			"cell (calm, bad): exp: NATRatio 1.5 outside [0,1]"},
		{"static-rvp without a public peer", `{"scenarios":["*.json"],"seeds":1,"base":{"n":20,"rounds":4},"variants":[{"name":"ok"},{"name":"bad","protocol":"static-rvp","nat_pct":100}]}`,
			"cell (calm, bad): exp: protocol static-rvp needs a public peer"},
	}
	corpus := t.TempDir()
	if err := os.WriteFile(filepath.Join(corpus, "calm.json"), []byte(`{"name":"calm"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		run := t.TempDir()
		err := func() error {
			spec, err := ParseSpec([]byte(c.json))
			if err != nil {
				return err
			}
			// Protocol names and every cell's configuration are checked at
			// expansion; a cell that slips through fails once its job runs.
			g, err := Expand(spec, corpus)
			if err != nil {
				return err
			}
			_, _, err = Execute(g, run, Options{Workers: 1})
			return err
		}()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
		if written, _ := os.ReadDir(filepath.Join(run, "results")); len(written) != 0 {
			t.Errorf("%s: %d results written before the spec was refused", c.name, len(written))
		}
	}
	// The cap itself is accepted.
	if _, err := ParseSpec([]byte(fmt.Sprintf(`{"scenarios":["*.json"],"seeds":%d,"variants":[{"name":"a"}]}`, exp.MaxSeeds))); err != nil {
		t.Errorf("seeds at the cap: %v", err)
	}
}

func TestExpandRejectsHorizonViolation(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "late.json"),
		[]byte(`{"name":"late","events":[{"round":50,"kind":"heal"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := testSpec() // rounds 12 < event round 50
	spec.Scenarios = []string{"late.json"}
	if _, err := Expand(spec, dir); err == nil || !strings.Contains(err.Error(), "late") {
		t.Errorf("horizon violation: err = %v", err)
	}
}

func TestReportRenderings(t *testing.T) {
	corpus := testCorpus(t)
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := Execute(g, t.TempDir(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	art, err := Aggregate(g, results)
	if err != nil {
		t.Fatal(err)
	}

	text := art.Text()
	for _, want := range []string{"crash", "split", "nylon", "generic", "p10", "p50", "p90", "band ("} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q", want)
		}
	}
	summary := art.SummaryCSV()
	if lines := strings.Count(summary, "\n"); lines != 1+len(art.Cells) {
		t.Errorf("summary CSV has %d lines, want %d", lines, 1+len(art.Cells))
	}
	bands := art.BandsCSV()
	wantRows := 0
	for _, c := range art.Cells {
		wantRows += len(c.Series)
	}
	if lines := strings.Count(bands, "\n"); lines != 1+wantRows {
		t.Errorf("bands CSV has %d lines, want %d", lines, 1+wantRows)
	}
	if wantRows == 0 {
		t.Error("no band rows at all — series sampling broken")
	}
}

// advSpec returns the unit spec with an adversary variant alongside the
// honest ones.
func advTestSpec() *Spec {
	spec := testSpec()
	spec.Variants = append(spec.Variants, Variant{
		Name: "nylon-poison20",
		Overrides: Overrides{
			Protocol: "nylon",
			Adversaries: []scenario.Adversary{
				{Strategy: "poison-view", Fraction: 0.2, FromRound: 2},
			},
		},
	})
	return spec
}

// TestAdversaryAxis covers the sweep's Byzantine dimension end to end:
// injected cohorts change only their own variant's job keys, the scenario
// shared by sibling cells is never mutated, and the aggregated artifact
// carries eclipse/honest-cluster bands exactly for the adversary cells.
func TestAdversaryAxis(t *testing.T) {
	corpus := testCorpus(t)
	honest, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Expand(advTestSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	// Honest cells keep their exact pre-adversary keys: the axis is purely
	// additive and existing result caches stay valid.
	honestKeys := make(map[string]bool, len(honest.Jobs))
	for _, j := range honest.Jobs {
		honestKeys[j.Key] = true
	}
	for _, j := range g.Jobs {
		if j.Variant == "nylon-poison20" {
			if honestKeys[j.Key] {
				t.Errorf("adversary job (%s, seed %d) collides with an honest key", j.Scenario, j.Seed)
			}
			if len(j.Cfg.Scenario.AdversaryList()) == 0 {
				t.Errorf("adversary job (%s, seed %d) lost its cohorts", j.Scenario, j.Seed)
			}
		} else {
			if !honestKeys[j.Key] {
				t.Errorf("honest job (%s, %s, seed %d) key changed by the adversary variant", j.Scenario, j.Variant, j.Seed)
			}
			if len(j.Cfg.Scenario.AdversaryList()) != 0 {
				t.Errorf("cohorts leaked into honest job (%s, %s)", j.Scenario, j.Variant)
			}
		}
	}
	for _, ent := range g.Scenarios {
		if len(ent.Scenario.Adversaries) != 0 {
			t.Errorf("corpus scenario %q mutated by variant injection", ent.Name)
		}
	}

	results, _, err := Execute(g, t.TempDir(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	art, err := Aggregate(g, results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range art.Cells {
		c := &art.Cells[i]
		hostile := c.Variant == "nylon-poison20"
		if hostile != (c.Eclipse != nil) || hostile != (c.HonestCluster != nil) {
			t.Errorf("cell (%s, %s): adversary bands presence wrong (eclipse %v)", c.Scenario, c.Variant, c.Eclipse)
		}
	}
	for _, want := range []string{"eclipse%p50", "eclipse probability"} {
		if !strings.Contains(art.Text(), want) {
			t.Errorf("adversary report missing %q", want)
		}
	}
	if !strings.Contains(art.SummaryCSV(), ",eclipse_p10,") || !strings.Contains(art.BandsCSV(), ",eclipse_p10,") {
		t.Error("adversary CSVs missing eclipse columns")
	}

	// Honest sweeps keep their pre-adversary renderings: no adversary
	// column anywhere.
	honestResults, _, err := Execute(honest, t.TempDir(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	honestArt, err := Aggregate(honest, honestResults)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{honestArt.Text(), honestArt.SummaryCSV(), honestArt.BandsCSV()} {
		if strings.Contains(out, "eclipse") {
			t.Error("honest sweep output gained adversary columns")
		}
	}
	data, err := honestArt.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "eclipse") {
		t.Error("honest artifact JSON gained adversary fields")
	}
}

// assertNoGoroutineLeak fails the test if goroutines created during it are
// still alive at cleanup — the executor and sweep workers must all terminate
// on every path, including interrupted ones. Run with -race to catch the
// leaked goroutine's unsynchronized writes too.
func assertNoGoroutineLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d at start, %d at cleanup\n%s",
					base, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestCacheChecksum pins the result files' integrity layer: stored files
// carry a checksum over their own content, and any file that fails it — or
// predates it — is a logged miss, never a trusted hit.
func TestCacheChecksum(t *testing.T) {
	run := t.TempDir()
	cache, err := OpenCache(run)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cache.Log = &log

	if err := cache.Store("k1", &exp.Result{BiggestCluster: 0.5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(run, "results", "k1.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stored entry
	if err := json.Unmarshal(data, &stored); err != nil || stored.Sum == "" {
		t.Fatalf("Store left the checksum unstamped (%v)", err)
	}
	if _, ok := cache.Load("k1"); !ok {
		t.Fatal("freshly stored result fails its own checksum")
	}

	// Valid JSON, correct key, silently altered payload: the classic
	// bit-rot/wrong-build case the key alone cannot catch.
	tampered := bytes.Replace(data, []byte(`"BiggestCluster": 0.5`), []byte(`"BiggestCluster": 0.9`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in stored JSON")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load("k1"); ok {
		t.Error("tampered result reported as hit")
	}
	if !strings.Contains(log.String(), "fails its checksum") {
		t.Errorf("tampered miss not logged: %q", log.String())
	}

	// A pre-checksum file (no sum at all) is a miss too.
	log.Reset()
	if err := os.WriteFile(filepath.Join(run, "results", "k2.json"),
		[]byte(`{"key":"k2","scenario":"s","variant":"v","seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load("k2"); ok {
		t.Error("checksum-less result reported as hit")
	}
	if !strings.Contains(log.String(), "no checksum") {
		t.Errorf("checksum-less miss not logged: %q", log.String())
	}
}

// TestCacheRoundTripsResult stores a real job's exp.Result, adversary block
// and series included, and loads it back equal field for field: the cache
// keeps exp's record of a run, not a digest of it.
func TestCacheRoundTripsResult(t *testing.T) {
	g, err := Expand(advTestSpec(), testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	job := g.Jobs[len(g.Jobs)-1]
	if len(job.Cfg.Scenario.AdversaryList()) == 0 {
		t.Fatalf("job (%s, %s) runs no adversaries", job.Scenario, job.Variant)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runJob(context.Background(), cache, job, Options{CheckpointEveryRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary.AdversaryCount == 0 || len(res.Series) == 0 {
		t.Fatalf("job ran %d adversaries and sampled %d rounds", res.Adversary.AdversaryCount, len(res.Series))
	}
	// Host wiring is not part of the record (json:"-").
	res.Cfg.Checkpoint = nil
	if err := cache.Store(job.Key, &res); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Load(job.Key)
	if !ok {
		t.Fatal("stored result not found")
	}
	if !reflect.DeepEqual(got, &res) {
		t.Errorf("loaded result differs from the stored one:\n%+v\n---\n%+v", got, &res)
	}
}

// seedJobSnapshots runs job's world directly (outside the sweep) with
// checkpointing into the job's snapshot directory, leaving mid-job snapshots
// behind without a cached result — the disk state of a sweep killed mid-job.
func seedJobSnapshots(t *testing.T, cache *Cache, job Job, everyRounds int) {
	t.Helper()
	cfg := job.Cfg
	cfg.Workers = 1
	cfg.Checkpoint = &exp.CheckpointSpec{Dir: cache.SnapshotDir(job.Key), EveryRounds: everyRounds}
	if _, err := exp.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(cache.Snapshots(job.Key)) == 0 {
		t.Fatal("seeding left no snapshots")
	}
}

// TestSweepMidJobResume pins the per-prefix snapshot cache: a job whose
// snapshot directory holds a checkpoint resumes from it (including from the
// final barrier — the kill window between the last snapshot and the result
// store), produces a byte-identical artifact, and drops its snapshots once
// the result is persisted.
func TestSweepMidJobResume(t *testing.T) {
	assertNoGoroutineLeak(t)
	corpus := testCorpus(t)
	run := t.TempDir()
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(run)
	if err != nil {
		t.Fatal(err)
	}

	// Job 0: snapshots at rounds 3, 6, 9 and 12 — the newest sits exactly at
	// the 12-round horizon. Job 1: newest strictly inside the run.
	seedJobSnapshots(t, cache, g.Jobs[0], 3)
	seedJobSnapshots(t, cache, g.Jobs[1], 5)

	var log bytes.Buffer
	results, st, err := Execute(g, run, Options{Workers: 1, CheckpointEveryRounds: 3, Log: &log})
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, log.String())
	}
	if st.Ran != 8 || st.Resumed != 2 || st.Cached != 0 {
		t.Errorf("stats %+v, want 8 ran / 2 resumed / 0 cached", st)
	}
	for _, job := range g.Jobs[:2] {
		if left := cache.Snapshots(job.Key); len(left) != 0 {
			t.Errorf("job %s finished but kept %d snapshots", job.Key[:12], len(left))
		}
	}

	// The artifact must not betray which jobs resumed and which ran fresh.
	art, err := Aggregate(g, results)
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 4})
	if !bytes.Equal(got, fresh) {
		t.Error("resumed-mid-job artifact differs from an uninterrupted sweep")
	}
}

// TestSweepSnapshotFallback pins the hostile-snapshot path: a corrupt
// snapshot and one captured from a different experiment point are both
// rejected with a logged warning, falling back to older snapshots and
// finally to a fresh run — never an error, never a wrong result.
func TestSweepSnapshotFallback(t *testing.T) {
	assertNoGoroutineLeak(t)
	corpus := testCorpus(t)
	run := t.TempDir()
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(run)
	if err != nil {
		t.Fatal(err)
	}

	// Job 0's snapshot directory: a truncated file as the newest snapshot,
	// and below it a perfectly valid snapshot of job 1 — a different seed,
	// which the config guard must reject rather than resume.
	seedJobSnapshots(t, cache, g.Jobs[1], 5)
	wrong := cache.Snapshots(g.Jobs[1].Key)[0]
	data, err := os.ReadFile(wrong)
	if err != nil {
		t.Fatal(err)
	}
	dir := cache.SnapshotDir(g.Jobs[0].Key)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, exp.SnapshotFileName(7)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, exp.SnapshotFileName(9)), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	results, st, err := Execute(g, run, Options{Workers: 1, CheckpointEveryRounds: 3, Log: &log})
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, log.String())
	}
	// Job 1 resumes from its own (valid) snapshot; job 0 falls back to a
	// fresh run after rejecting both planted files.
	if st.Ran != 8 || st.Resumed != 1 {
		t.Errorf("stats %+v, want 8 ran / 1 resumed", st)
	}
	if n := strings.Count(log.String(), "unusable"); n != 2 {
		t.Errorf("want 2 rejected-snapshot warnings, got %d:\n%s", n, log.String())
	}
	art, err := Aggregate(g, results)
	if err != nil {
		t.Fatal(err)
	}
	got, err := art.JSON()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 4})
	if !bytes.Equal(got, fresh) {
		t.Error("fallback artifact differs from an uninterrupted sweep")
	}
}

// TestSweepShutdownContext pins the one-cancellation-path contract: a
// cancelled Options.Ctx stops the sweep (ErrStopped, partial results
// persisted), in-flight jobs checkpoint at their next barrier, and a rerun
// completes the grid byte-identically. All worker goroutines terminate on the
// interrupted path.
func TestSweepShutdownContext(t *testing.T) {
	assertNoGoroutineLeak(t)
	corpus := testCorpus(t)
	run := t.TempDir()
	g, err := Expand(testSpec(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	// Cancelled before the first dequeue: nothing runs, ErrStopped reports
	// the shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := Execute(g, run, Options{Workers: 2, Ctx: ctx})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("pre-cancelled ctx: err = %v, want ErrStopped", err)
	}
	if st.Ran != 0 {
		t.Errorf("pre-cancelled ctx ran %d jobs", st.Ran)
	}

	// Cancelled mid-run: a watcher cancels as soon as the first mid-job
	// snapshot lands on disk, so some job is very likely interrupted at a
	// barrier. Whatever the interleaving, the rerun must complete the grid
	// and aggregate to the uninterrupted bytes.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cache, err := OpenCache(run)
	if err != nil {
		t.Fatal(err)
	}
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for ctx.Err() == nil {
			for _, job := range g.Jobs {
				if len(cache.Snapshots(job.Key)) > 0 {
					cancel()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, _, err = Execute(g, run, Options{Workers: 2, Ctx: ctx, CheckpointEveryRounds: 1})
	cancel()
	<-watcherDone
	if err != nil && !errors.Is(err, ErrStopped) {
		t.Fatalf("interrupted run: err = %v", err)
	}

	resumed, st := sweepOnce(t, corpus, run, Options{Workers: 2, CheckpointEveryRounds: 1})
	if st.Ran+st.Cached != 8 {
		t.Errorf("rerun stats %+v, want 8 jobs accounted for", st)
	}
	fresh, _ := sweepOnce(t, corpus, t.TempDir(), Options{Workers: 4})
	if !bytes.Equal(resumed, fresh) {
		t.Error("artifact after interrupt+resume differs from an uninterrupted sweep")
	}
}
