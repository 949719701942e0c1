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
	// Key is the hex SHA-256 of the job descriptor: every result-affecting
	// configuration field, the scenario file's content hash, and the seed.
	// Equal keys ⇒ bit-identical results, which is what makes the result
	// cache safe to reuse across runs and spec edits.
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

// jobKey is the canonical descriptor hashed into Job.Key. Field order is
// fixed by the struct; bump Version when the meaning of any field changes so
// stale cached results are orphaned rather than misread.
type jobKey struct {
	Version      int     `json:"v"`
	ScenarioHash string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	N            int     `json:"n"`
	Rounds       int     `json:"rounds"`
	ViewSize     int     `json:"view_size"`
	NATRatio     float64 `json:"nat_ratio"`
	MixRC        float64 `json:"mix_rc"`
	MixPRC       float64 `json:"mix_prc"`
	MixSYM       float64 `json:"mix_sym"`
	Protocol     string  `json:"protocol"`
	Selection    string  `json:"selection"`
	Merge        string  `json:"merge"`
	PushPull     bool    `json:"push_pull"`
	PeriodMs     int64   `json:"period_ms"`
	LatencyMs    int64   `json:"latency_ms"`
	HoleTimeout  int64   `json:"hole_timeout_ms"`
	CacheSize    int     `json:"cache_size"`
	Evict        bool    `json:"evict_unanswered"`
	UPnP         float64 `json:"upnp_fraction"`
	SampleEvery  int     `json:"sample_every"`
	// Adversaries is the canonical JSON of the variant-injected adversary
	// specs. Scenario-file adversaries are already covered by ScenarioHash;
	// omitempty keeps every pre-adversary job key byte-identical, so
	// existing caches stay valid.
	Adversaries string `json:"adversaries,omitempty"`
}

// keyVersion is the current job-descriptor format.
const keyVersion = 1

// keyOf computes the content address of one job. cfg must already carry its
// defaults so that implicit and explicit parameter choices hash equally.
func keyOf(cfg exp.Config, scenarioHash string, seed int64, adversaries string) string {
	desc := jobKey{
		Adversaries:  adversaries,
		Version:      keyVersion,
		ScenarioHash: scenarioHash,
		Seed:         seed,
		N:            cfg.N,
		Rounds:       cfg.Rounds,
		ViewSize:     cfg.ViewSize,
		NATRatio:     cfg.NATRatio,
		MixRC:        cfg.Mix.RC,
		MixPRC:       cfg.Mix.PRC,
		MixSYM:       cfg.Mix.SYM,
		Protocol:     cfg.Protocol.String(),
		Selection:    cfg.Selection.String(),
		Merge:        cfg.Merge.String(),
		PushPull:     cfg.PushPull,
		PeriodMs:     cfg.PeriodMs,
		LatencyMs:    cfg.LatencyMs,
		HoleTimeout:  cfg.HoleTimeoutMs,
		CacheSize:    cfg.CacheSize,
		Evict:        cfg.EvictUnanswered,
		UPnP:         cfg.UPnPFraction,
		SampleEvery:  cfg.SampleEveryRounds,
	}
	data, err := json.Marshal(desc)
	if err != nil {
		panic(fmt.Sprintf("sweep: marshal job key: %v", err)) // plain struct, cannot fail
	}
	return hashHex(data)
}

// Expand loads the corpus and expands the spec into the deterministic job
// grid. Every job's configuration is validated here — a scenario event past
// a variant's horizon, say, fails fast with the cell named, before any
// simulation runs.
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

	// One resolved config per variant, shared across the corpus. A variant
	// injecting adversaries also carries their canonical JSON, which joins
	// the job key (the scenario file hash cannot see injected cohorts).
	cfgs := make([]exp.Config, len(spec.Variants))
	advs := make([][]scenario.Adversary, len(spec.Variants))
	advKeys := make([]string, len(spec.Variants))
	for i, v := range spec.Variants {
		merged := v.Overrides.merge(spec.Base)
		cfg, err := merged.resolve()
		if err != nil {
			return nil, fmt.Errorf("sweep: variant %q: %w", v.Name, err)
		}
		cfgs[i] = cfg.Defaults()
		if len(merged.Adversaries) > 0 {
			advs[i] = merged.Adversaries
			data, err := json.Marshal(merged.Adversaries)
			if err != nil {
				return nil, fmt.Errorf("sweep: variant %q: marshal adversaries: %w", v.Name, err)
			}
			advKeys[i] = string(data)
		}
	}

	for _, ent := range entries {
		scenarioHash := hashHex(ent.Raw)
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
			if err := cfg.Scenario.Validate(cfg.Rounds); err != nil {
				return nil, fmt.Errorf("sweep: cell (%s, %s): %w", ent.Name, v.Name, err)
			}
			for _, seed := range seeds {
				jobCfg := cfg
				jobCfg.Seed = seed
				g.Jobs = append(g.Jobs, Job{
					Scenario: ent.Name,
					Variant:  v.Name,
					Seed:     seed,
					Cfg:      jobCfg,
					Key:      keyOf(jobCfg, scenarioHash, seed, advKeys[i]),
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
