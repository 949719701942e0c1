package exp

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
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
