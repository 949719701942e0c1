package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse feeds Parse foreign JSON and Validate any round count.
// Neither may panic, nor may the accessors the harness calls on what Parse
// returns. A scenario that parses and validates must re-marshal to bytes
// that parse, validate at the same round count and re-marshal to the same
// bytes: a checkpoint stores its run's scenario as JSON, and must read back
// the scenario it stored. The seed corpus is the scenario lab's
// committed JSON, sweep specs included; the two trace bundles, ~300 KB each,
// are left out, since mutating them would spend the fuzzing budget on
// parsing bundles Parse refuses at their first key.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenario-lab/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no committed scenarios found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		if len(data) > 16<<10 {
			continue
		}
		f.Add(data, 200)
	}
	f.Fuzz(func(t *testing.T, data []byte, rounds int) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		s.Quiescent()
		s.AdversaryList()
		s.GroupSize()
		s.NeedsLinkPolicy()
		if s.Validate(rounds) != nil {
			return
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("re-marshalled scenario does not parse: %v\n%s", err, first)
		}
		if err := again.Validate(rounds); err != nil {
			t.Fatalf("re-marshalled scenario does not validate at %d rounds: %v\n%s", rounds, err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-marshalling is not stable:\n%s\n%s", first, second)
		}
	})
}
