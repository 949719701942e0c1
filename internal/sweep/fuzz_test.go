package sweep

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
)

// FuzzParseSpec feeds ParseSpec foreign JSON. It must never panic, and a spec
// it accepts must validate and hold at most exp.MaxSeeds seeds per cell: the
// seed list is allocated from that count, so an unbounded one is an
// out-of-memory crash, not an error. The seed corpus is the committed sweep
// specs and a spec asking for 10¹² seeds.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenario-lab/*sweep*.json")
	if err != nil {
		f.Fatal(err)
	}
	more, err := filepath.Glob("../../examples/scenario-lab/*/sweep.json")
	if err != nil {
		f.Fatal(err)
	}
	paths = append(paths, more...)
	if len(paths) == 0 {
		f.Fatal("no committed sweep specs found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"scenarios":["*.json"],"seeds":1000000000000,"variants":[{"name":"a"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseSpec accepted a spec Validate rejects: %v", err)
		}
		if n := len(spec.EffectiveSeeds()); n < 1 || n > exp.MaxSeeds {
			t.Fatalf("accepted spec has %d seeds, want 1 to %d", n, exp.MaxSeeds)
		}
	})
}
