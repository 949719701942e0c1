package sweep

import (
	"encoding/json"
	"fmt"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// Job is one point of the grid: one scenario × variant × seed, fully
// resolved into a runnable configuration and content-addressed by Key.
type Job struct {
	// Scenario and Variant name the cell; Seed the point within it.
	Scenario string
	Variant  string
	Seed     int64
	// Cfg is the resolved configuration (Seed and Scenario attached;
	// Workers/Shards left to Execute, which results are invariant to).
	Cfg exp.Config
	// Key is the hex SHA-256 of keyVersion and Cfg's exp.Config.Identity:
	// every result-affecting configuration field, the parsed scenario and
	// the seed. Equal keys ⇒ bit-identical results, which is what makes the
	// result cache safe to reuse across runs and spec edits.
	Key string
}

// Grid is an expanded sweep: the loaded corpus and the deterministic job
// list, scenario-major, then variant, then seed — the iteration order every
// consumer (executor, aggregator, printers) shares.
type Grid struct {
	Spec      *Spec
	Scenarios []scenario.CorpusEntry
	Seeds     []int64
	// SpecHash fingerprints the effective sweep: the re-marshaled spec plus
	// every scenario file's content hash. Two grids with equal SpecHash
	// expand to identical jobs.
	SpecHash string
	Jobs     []Job
}

// keyVersion is the current job-key format: bump it when the meaning of the
// identity or the shape of a results file changes, so stale cached results
// are orphaned rather than misread.
const keyVersion = 3

// keyOf computes the content address of one job: the hex SHA-256 of
// keyVersion and exp's identity of the job's configuration, which holds the
// seed and the scenario with any variant-injected cohorts.
func keyOf(cfg exp.Config) (string, error) {
	id, err := cfg.Identity()
	if err != nil {
		return "", err
	}
	return hashHex(append([]byte(fmt.Sprintf("v%d\n", keyVersion)), id...)), nil
}

// Expand loads the corpus and expands the spec into the deterministic job
// grid. Every cell's configuration passes exp's own validator here — a
// scenario event past a variant's horizon or a NAT share above 100%, say,
// fails fast with the cell named, before any simulation runs.
func Expand(spec *Spec, baseDir string) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	entries, err := scenario.LoadCorpus(baseDir, spec.Scenarios)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	seeds := spec.EffectiveSeeds()

	g := &Grid{Spec: spec, Scenarios: entries, Seeds: seeds}
	g.Jobs = make([]Job, 0, len(entries)*len(spec.Variants)*len(seeds))

	// One resolved config per variant, shared across the corpus, and the
	// adversary cohorts the variant injects into every scenario.
	cfgs := make([]exp.Config, len(spec.Variants))
	advs := make([][]scenario.Adversary, len(spec.Variants))
	for i, v := range spec.Variants {
		merged := v.Overrides.merge(spec.Base)
		cfg, err := merged.resolve()
		if err != nil {
			return nil, fmt.Errorf("sweep: variant %q: %w", v.Name, err)
		}
		cfgs[i] = cfg.Defaults()
		advs[i] = merged.Adversaries
	}

	for _, ent := range entries {
		for i, v := range spec.Variants {
			cfg := cfgs[i]
			cfg.Scenario = ent.Scenario
			if len(advs[i]) > 0 {
				// Clone the shared scenario before injecting the variant's
				// cohorts: other cells keep the file's verbatim timeline.
				var sc scenario.Scenario
				if ent.Scenario != nil {
					sc = *ent.Scenario
				}
				sc.Adversaries = advs[i]
				cfg.Scenario = &sc
			}
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: cell (%s, %s): %w", ent.Name, v.Name, err)
			}
			for _, seed := range seeds {
				jobCfg := cfg
				jobCfg.Seed = seed
				key, err := keyOf(jobCfg)
				if err != nil {
					return nil, fmt.Errorf("sweep: cell (%s, %s): %w", ent.Name, v.Name, err)
				}
				g.Jobs = append(g.Jobs, Job{
					Scenario: ent.Name,
					Variant:  v.Name,
					Seed:     seed,
					Cfg:      jobCfg,
					Key:      key,
				})
			}
		}
	}

	g.SpecHash = g.hashSpec()
	return g, nil
}

// hashSpec fingerprints the effective sweep. It re-marshals the spec (not
// the source bytes, so formatting-only edits do not change the hash) and
// folds in every scenario's content hash.
func (g *Grid) hashSpec() string {
	specJSON, err := json.Marshal(g.Spec)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal spec: %v", err))
	}
	h := append([]byte{}, specJSON...)
	for _, ent := range g.Scenarios {
		h = append(h, '\n')
		h = append(h, ent.Name...)
		h = append(h, ':')
		h = append(h, hashHex(ent.Raw)...)
	}
	return hashHex(h)
}

// VariantNames lists the variant names in spec order.
func (g *Grid) VariantNames() []string {
	out := make([]string, len(g.Spec.Variants))
	for i, v := range g.Spec.Variants {
		out[i] = v.Name
	}
	return out
}

// ScenarioNames lists the corpus names in grid order.
func (g *Grid) ScenarioNames() []string {
	out := make([]string, len(g.Scenarios))
	for i, e := range g.Scenarios {
		out[i] = e.Name
	}
	return out
}
