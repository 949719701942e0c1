// Package sweep is the scenario-diversity orchestrator: it expands a
// declarative sweep specification — a scenario corpus × a seed set ×
// protocol/configuration variants — into a deterministic grid of simulation
// jobs, executes each as a single-worker exp.Run on a pool of workers with
// content-addressed result caching (a killed sweep restarts without
// recomputing), and aggregates the per-run health series into per-cell
// recovery summaries and per-round p10/p50/p90 quantile bands.
//
// The whole pipeline is a pure function of (spec, scenario files, seeds):
// the same inputs produce a byte-identical JSON artifact, regardless of
// worker count, cache state, or how many times the sweep was interrupted.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/view"
)

// Spec is one declarative sweep: which scenarios, which seeds, which
// protocol variants. It is pure data, loadable from JSON; unknown fields are
// rejected so typos fail loudly.
type Spec struct {
	// Name identifies the sweep in artifacts and run directories.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Scenarios are glob patterns naming the scenario corpus, resolved
	// relative to the spec file's directory (see scenario.LoadCorpus).
	Scenarios []string `json:"scenarios"`

	// Seeds is the number of seeds per cell (the canonical list 1..Seeds);
	// SeedList replaces it with an explicit list.
	Seeds    int     `json:"seeds,omitempty"`
	SeedList []int64 `json:"seed_list,omitempty"`

	// Base is the configuration shared by every variant.
	Base Overrides `json:"base,omitempty"`

	// Variants are the protocol/configuration variants; each (scenario,
	// variant) pair is one cell of the output grid. Variant fields override
	// Base.
	Variants []Variant `json:"variants"`
}

// Variant is one named configuration column of the grid.
type Variant struct {
	Name string `json:"name"`
	Overrides
}

// Overrides is the subset of the experiment configuration a sweep can set.
// Zero (or nil) fields inherit: variant ← base ← defaults.
type Overrides struct {
	// N is the initial number of peers (default 300).
	N int `json:"n,omitempty"`
	// Rounds is the run horizon in shuffling rounds (default 120).
	Rounds int `json:"rounds,omitempty"`
	// ViewSize is the partial view size (default 15).
	ViewSize int `json:"view_size,omitempty"`
	// NATPct is the percentage of natted peers (default 80; pointer so 0%
	// is expressible).
	NATPct *float64 `json:"nat_pct,omitempty"`
	// Protocol is one of nylon, generic, arrg, static-rvp (default nylon).
	Protocol string `json:"protocol,omitempty"`
	// Selection is rand or tail (default rand).
	Selection string `json:"selection,omitempty"`
	// Merge is blind, healer or swapper (default healer).
	Merge string `json:"merge,omitempty"`
	// PushOnly disables pull replies (default false: push/pull; pointer so
	// a variant can reset a base override).
	PushOnly *bool `json:"push_only,omitempty"`
	// Mix splits the natted population across NAT classes (default the
	// paper's 50/40/10).
	Mix *scenario.Mix `json:"nat_mix,omitempty"`
	// SampleEvery is the health-series sampling interval in rounds
	// (default rounds/20, at least 1). The series is what the per-round
	// bands aggregate, so it must stay identical across a cell's seeds.
	SampleEvery int `json:"sample_every,omitempty"`
	// Adversaries injects Byzantine cohorts into every scenario of the
	// grid for this variant (see scenario.Adversary), replacing any
	// adversaries the scenario files declare — the sweep's adversary
	// axis: strategy × fraction grids live in the variant list. nil
	// inherits the base; an explicit empty list resets a base override.
	Adversaries []scenario.Adversary `json:"adversaries,omitempty"`
}

// merge returns o with unset fields filled from base.
func (o Overrides) merge(base Overrides) Overrides {
	if o.N == 0 {
		o.N = base.N
	}
	if o.Rounds == 0 {
		o.Rounds = base.Rounds
	}
	if o.ViewSize == 0 {
		o.ViewSize = base.ViewSize
	}
	if o.NATPct == nil {
		o.NATPct = base.NATPct
	}
	if o.Protocol == "" {
		o.Protocol = base.Protocol
	}
	if o.Selection == "" {
		o.Selection = base.Selection
	}
	if o.Merge == "" {
		o.Merge = base.Merge
	}
	if o.PushOnly == nil {
		o.PushOnly = base.PushOnly
	}
	if o.Mix == nil {
		o.Mix = base.Mix
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = base.SampleEvery
	}
	if o.Adversaries == nil {
		o.Adversaries = base.Adversaries
	}
	return o
}

// resolve turns a fully merged Overrides into an experiment configuration
// (without scenario and seed, which the grid attaches per job).
func (o Overrides) resolve() (exp.Config, error) {
	cfg := exp.Config{
		N:        300,
		Rounds:   120,
		ViewSize: 15,
		NATRatio: 0.8,
		PushPull: true,
		Protocol: exp.ProtoNylon,
		// Deployable peer samplers evict unanswered targets (see
		// exp.nylonCfg); adversity scenarios are exactly the regime where
		// that matters.
		EvictUnanswered: true,
	}
	if o.N != 0 {
		cfg.N = o.N
	}
	if o.Rounds != 0 {
		cfg.Rounds = o.Rounds
	}
	if o.ViewSize != 0 {
		cfg.ViewSize = o.ViewSize
	}
	if o.NATPct != nil {
		cfg.NATRatio = *o.NATPct / 100
	}
	var err error
	if o.Protocol != "" {
		if cfg.Protocol, err = exp.ParseProtocol(o.Protocol); err != nil {
			return exp.Config{}, err
		}
	}
	if o.Selection != "" {
		if cfg.Selection, err = view.ParseSelection(o.Selection); err != nil {
			return exp.Config{}, err
		}
	}
	cfg.Merge = view.MergeHealer
	if o.Merge != "" {
		if cfg.Merge, err = view.ParseMerge(o.Merge); err != nil {
			return exp.Config{}, err
		}
	}
	if o.PushOnly != nil {
		cfg.PushPull = !*o.PushOnly
	}
	if o.Mix != nil {
		cfg.Mix = exp.NATMix{RC: o.Mix.RC, PRC: o.Mix.PRC, SYM: o.Mix.SYM}
	}
	cfg.SampleEveryRounds = o.SampleEvery
	if cfg.SampleEveryRounds == 0 {
		cfg.SampleEveryRounds = cfg.Rounds / 20
		if cfg.SampleEveryRounds < 1 {
			cfg.SampleEveryRounds = 1
		}
	}
	return cfg, nil
}

// EffectiveSeeds returns the sweep's seed list: SeedList verbatim, or the
// canonical 1..Seeds.
func (s *Spec) EffectiveSeeds() []int64 {
	if len(s.SeedList) > 0 {
		return s.SeedList
	}
	return exp.SeedList(s.Seeds)
}

// Validate checks the spec's shape; per-job configuration problems (bad
// protocol names, scenarios past the horizon) surface during expansion with
// the offending cell named.
func (s *Spec) Validate() error {
	if len(s.Scenarios) == 0 {
		return fmt.Errorf("sweep: spec has no scenario patterns")
	}
	if len(s.Variants) == 0 {
		return fmt.Errorf("sweep: spec has no variants")
	}
	names := make(map[string]bool, len(s.Variants))
	for i, v := range s.Variants {
		if v.Name == "" {
			return fmt.Errorf("sweep: variant %d has no name", i)
		}
		if names[v.Name] {
			return fmt.Errorf("sweep: duplicate variant name %q", v.Name)
		}
		names[v.Name] = true
	}
	if s.Seeds < 0 {
		return fmt.Errorf("sweep: seeds %d is negative", s.Seeds)
	}
	if s.Seeds > exp.MaxSeeds {
		return fmt.Errorf("sweep: seeds %d exceeds the cap of %d", s.Seeds, exp.MaxSeeds)
	}
	if len(s.SeedList) > exp.MaxSeeds {
		return fmt.Errorf("sweep: seed_list of %d seeds exceeds the cap of %d", len(s.SeedList), exp.MaxSeeds)
	}
	if s.Seeds == 0 && len(s.SeedList) == 0 {
		return fmt.Errorf("sweep: spec needs seeds > 0 or a non-empty seed_list")
	}
	seen := make(map[int64]bool, len(s.SeedList))
	for _, seed := range s.SeedList {
		if seen[seed] {
			return fmt.Errorf("sweep: duplicate seed %d in seed_list", seed)
		}
		seen[seed] = true
	}
	return nil
}

// ParseSpec decodes a sweep spec from JSON, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a sweep spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// hashHex returns the hex SHA-256 of data.
func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
