// Package scenario describes the *environment* of a simulation run as a
// declarative, seed-deterministic timeline: continuous Poisson join/leave
// churn, flash crowds, correlated NAT-gateway failures, NAT-class
// distribution shifts, per-link latency jitter and probabilistic loss, and
// network partitions that split and heal.
//
// A Scenario holds no randomness of its own — it is pure data, loadable from
// JSON. The experiment harness (internal/exp) interprets it against the run
// clock: every stochastic decision draws from RNG streams derived from the
// run seed (see exp's scenario driver), so a run remains a pure function of
// (Config, Scenario, Seed).
//
// Times are expressed in shuffling rounds: an event with Round r fires at
// virtual time r×PeriodMs, after that round's continuous-churn draw and
// after any health-series sample scheduled for the same boundary.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"

	"repro/internal/adversary"
)

// Scenario is one declarative environment timeline. The zero Scenario (and a
// nil *Scenario) is quiescent: it perturbs nothing, and the harness
// guarantees a run under it is bit-identical to a run with no scenario at
// all.
type Scenario struct {
	// Name identifies the scenario in output and corpus files.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Churn, when non-nil, drives continuous Poisson join/leave churn.
	Churn *Churn `json:"churn,omitempty"`

	// Link, when non-nil, is the link model in force from the start of the
	// run (set_link events change it later).
	Link *Link `json:"link,omitempty"`

	// GatewayGroupSize is the number of natted peers sharing one logical
	// NAT gateway, for gateway_failure events. The simulated network keeps
	// one NAT device per peer (the paper's setup); groups model the
	// correlation of a shared physical gateway: all members of a failing
	// group die together. 0 means DefaultGatewayGroupSize.
	GatewayGroupSize int `json:"gateway_group_size,omitempty"`

	// Events is the explicit timeline, interpreted in slice order for
	// events sharing a round.
	Events []Event `json:"events,omitempty"`

	// Adversaries declares Byzantine cohorts: deterministic fractions (or
	// explicit IDs) of the population running a hostile engine wrapper (see
	// internal/adversary). Membership is assigned seed-deterministically by
	// the harness, at creation and at every mid-run join; specs are matched
	// in slice order, first match wins.
	Adversaries []Adversary `json:"adversaries,omitempty"`
}

// Adversary declares one Byzantine cohort.
type Adversary struct {
	// Strategy is the attack: poison-view, lying-rvp, selective-drop or
	// free-ride (see internal/adversary).
	Strategy string `json:"strategy"`
	// Fraction is the share of peers (initial population and mid-run
	// arrivals alike) adopting the strategy, in (0,1).
	Fraction float64 `json:"fraction,omitempty"`
	// IDs lists explicit peer IDs instead of a fraction (exactly one of
	// the two must be given).
	IDs []uint64 `json:"ids,omitempty"`
	// FromRound activates the attack at that round boundary; before it the
	// cohort behaves honestly (0 = hostile from the start).
	FromRound int `json:"from_round,omitempty"`
	// DropKinds restricts selective-drop to these message kinds (request,
	// response, open-hole, ping, pong); empty means every kind. Only valid
	// for selective-drop.
	DropKinds []string `json:"drop_kinds,omitempty"`
	// Victims restricts selective-drop to datagrams whose source or final
	// destination is listed; empty means everyone. Only valid for
	// selective-drop.
	Victims []uint64 `json:"victims,omitempty"`
}

// DefaultGatewayGroupSize is the gateway group size when the scenario leaves
// it unset.
const DefaultGatewayGroupSize = 8

// MaxChurnRate bounds the per-round Poisson churn rates. Knuth's sampler
// underflows exp(-λ) around λ ≈ 745 and would silently saturate; rates that
// large are mass events, which flash_crowd and mass_leave model exactly.
const MaxChurnRate = 500

// Churn is continuous Poisson churn: every round in [StartRound, EndRound]
// draws the number of joining and leaving peers from Poisson distributions.
type Churn struct {
	// JoinsPerRound and LeavesPerRound are the Poisson rates (λ), in peers
	// per shuffling round.
	JoinsPerRound  float64 `json:"joins_per_round,omitempty"`
	LeavesPerRound float64 `json:"leaves_per_round,omitempty"`
	// StartRound is the first churning round (0 means round 1).
	StartRound int `json:"start_round,omitempty"`
	// EndRound is the last churning round, inclusive (0 means the end of
	// the run).
	EndRound int `json:"end_round,omitempty"`
}

// MaxJitterMs bounds a link's jitter: one hour, past any delay a gossip
// overlay could be studied under, and small enough that a datagram's arrival
// time cannot wrap the int64 clock of a run that exp.Config admits.
const MaxJitterMs = 3_600_000

// Link perturbs individual datagram transmissions.
type Link struct {
	// JitterMs adds a uniformly-drawn extra one-way delay in [0, JitterMs]
	// milliseconds to each datagram. Like every delivery, a jittered
	// datagram rides its shard's lane; one delayed past the next barrier
	// waits in the shard's held list until the barrier that releases it.
	JitterMs int64 `json:"jitter_ms,omitempty"`
	// Loss is the probability, in [0, 1), that a datagram is lost in
	// flight.
	Loss float64 `json:"loss,omitempty"`
}

// Mix is a NAT-class distribution for peers arriving after a nat_shift
// event. Fractions must sum to 1.
type Mix struct {
	RC  float64 `json:"rc"`
	PRC float64 `json:"prc"`
	SYM float64 `json:"sym"`
}

// Kind classifies a scenario event.
type Kind string

// Event kinds.
const (
	// KindFlashCrowd makes Count peers (or Fraction of the initial
	// population) join at once.
	KindFlashCrowd Kind = "flash_crowd"
	// KindMassLeave kills Fraction of the alive peers at once (the
	// generalization of the legacy one-shot ChurnAtRound).
	KindMassLeave Kind = "mass_leave"
	// KindGatewayFailure kills Groups whole NAT-gateway groups: every
	// peer behind a failing gateway dies together.
	KindGatewayFailure Kind = "gateway_failure"
	// KindNATShift changes the NAT ratio and/or class mix that future
	// arrivals draw from.
	KindNATShift Kind = "nat_shift"
	// KindPartition splits the network in two: a minority side holding
	// Fraction of the alive peers, and the rest. Datagrams across the cut
	// are dropped until a heal. DurationRounds > 0 schedules the heal
	// automatically.
	KindPartition Kind = "partition"
	// KindHeal ends the active partition.
	KindHeal Kind = "heal"
	// KindSetLink replaces the link model (jitter, loss) from this round
	// on.
	KindSetLink Kind = "set_link"
)

// Event is one timeline entry. Only the fields its Kind documents are
// interpreted; Validate rejects events missing required ones.
type Event struct {
	// Round is the shuffling round at which the event fires, in
	// [1, Rounds-1] — an event at or past the run horizon could never be
	// observed and is rejected.
	Round int  `json:"round"`
	Kind  Kind `json:"kind"`

	// Count is the number of peers joining (flash_crowd).
	Count int `json:"count,omitempty"`
	// Fraction is the flash-crowd size as a fraction of the initial
	// population (alternative to Count), the killed share (mass_leave), or
	// the minority-side share (partition).
	Fraction float64 `json:"fraction,omitempty"`
	// Groups is the number of gateway groups failing (gateway_failure).
	Groups int `json:"groups,omitempty"`
	// DurationRounds auto-heals a partition that many rounds later
	// (0 = until an explicit heal or the end of the run). A duration
	// reaching the run horizon behaves like 0: the partition stays in
	// force through the final measurement.
	DurationRounds int `json:"duration_rounds,omitempty"`

	// NATRatio and Mix update the arrival distribution (nat_shift); nil
	// leaves the respective dimension unchanged.
	NATRatio *float64 `json:"nat_ratio,omitempty"`
	Mix      *Mix     `json:"mix,omitempty"`

	// JitterMs and Loss define the new link model (set_link); nil means 0.
	JitterMs *int64   `json:"jitter_ms,omitempty"`
	Loss     *float64 `json:"loss,omitempty"`
}

// Quiescent reports whether the scenario perturbs nothing: no churn model,
// no link model, no events. The harness uses it to keep the legacy
// constant-latency fast path bit-identical.
func (s *Scenario) Quiescent() bool {
	if s == nil {
		return true
	}
	return s.Churn == nil && s.Link == nil && len(s.Events) == 0 && len(s.Adversaries) == 0
}

// AdversaryList returns the scenario's adversary specs (nil-safe).
func (s *Scenario) AdversaryList() []Adversary {
	if s == nil {
		return nil
	}
	return s.Adversaries
}

// GroupSize returns the effective gateway group size.
func (s *Scenario) GroupSize() int {
	if s.GatewayGroupSize <= 0 {
		return DefaultGatewayGroupSize
	}
	return s.GatewayGroupSize
}

// NeedsLinkPolicy reports whether the run must install a link-perturbation
// policy up front: either an initial link model or a set_link event exists.
func (s *Scenario) NeedsLinkPolicy() bool {
	if s == nil {
		return false
	}
	if s.Link != nil {
		return true
	}
	for _, e := range s.Events {
		if e.Kind == KindSetLink {
			return true
		}
	}
	return false
}

// Validate checks the scenario against a run of the given number of rounds
// and returns the first problem found, with enough context to fix the
// offending field.
func (s *Scenario) Validate(rounds int) error {
	if s == nil {
		return nil
	}
	if rounds <= 0 {
		return fmt.Errorf("scenario: run horizon must be positive, got %d rounds", rounds)
	}
	if c := s.Churn; c != nil {
		if c.JoinsPerRound < 0 || c.LeavesPerRound < 0 {
			return fmt.Errorf("scenario: churn rates must be non-negative (joins %v, leaves %v)", c.JoinsPerRound, c.LeavesPerRound)
		}
		if math.IsNaN(c.JoinsPerRound) || math.IsNaN(c.LeavesPerRound) {
			return fmt.Errorf("scenario: churn rate is NaN")
		}
		if c.JoinsPerRound > MaxChurnRate || c.LeavesPerRound > MaxChurnRate {
			return fmt.Errorf("scenario: churn rate above %v/round (joins %v, leaves %v) — use flash_crowd/mass_leave for mass events", float64(MaxChurnRate), c.JoinsPerRound, c.LeavesPerRound)
		}
		if c.StartRound < 0 || c.StartRound >= rounds {
			return fmt.Errorf("scenario: churn start_round %d outside [0,%d)", c.StartRound, rounds)
		}
		if c.EndRound < 0 || c.EndRound >= rounds {
			return fmt.Errorf("scenario: churn end_round %d outside [0,%d) (0 means run end)", c.EndRound, rounds)
		}
		if c.EndRound != 0 && c.EndRound < c.StartRound {
			return fmt.Errorf("scenario: churn end_round %d before start_round %d", c.EndRound, c.StartRound)
		}
	}
	if l := s.Link; l != nil {
		if err := validateLink(l.JitterMs, l.Loss); err != nil {
			return err
		}
	}
	if s.GatewayGroupSize < 0 {
		return fmt.Errorf("scenario: gateway_group_size %d is negative", s.GatewayGroupSize)
	}
	for i, e := range s.Events {
		if err := e.validate(rounds); err != nil {
			return fmt.Errorf("scenario: event %d (%s): %w", i, e.Kind, err)
		}
	}
	for i := range s.Adversaries {
		if err := s.Adversaries[i].validate(rounds); err != nil {
			return fmt.Errorf("scenario: adversary %d: %w", i, err)
		}
	}
	return nil
}

func (a *Adversary) validate(rounds int) error {
	strat, err := adversary.ParseStrategy(a.Strategy)
	if err != nil {
		return err
	}
	if strat == adversary.None {
		return fmt.Errorf("strategy %q declares no attack — remove the spec instead", a.Strategy)
	}
	if math.IsNaN(a.Fraction) || a.Fraction < 0 || a.Fraction >= 1 {
		return fmt.Errorf("fraction %v outside [0,1)", a.Fraction)
	}
	if (a.Fraction > 0) == (len(a.IDs) > 0) {
		return fmt.Errorf("needs exactly one of fraction > 0 or a non-empty ids list")
	}
	for _, id := range a.IDs {
		if id == 0 {
			return fmt.Errorf("ids contains the nil peer ID 0")
		}
	}
	if a.FromRound < 0 || a.FromRound >= rounds {
		return fmt.Errorf("from_round %d outside [0,%d)", a.FromRound, rounds)
	}
	if _, err := adversary.ParseKinds(a.DropKinds); err != nil {
		return err
	}
	if strat != adversary.SelectiveDrop && (len(a.DropKinds) > 0 || len(a.Victims) > 0) {
		return fmt.Errorf("drop_kinds/victims only apply to selective-drop, not %s", a.Strategy)
	}
	return nil
}

func validateLink(jitterMs int64, loss float64) error {
	if jitterMs < 0 || jitterMs > MaxJitterMs {
		return fmt.Errorf("scenario: jitter_ms %d outside [0,%d]", jitterMs, MaxJitterMs)
	}
	if loss < 0 || loss >= 1 || math.IsNaN(loss) {
		return fmt.Errorf("scenario: loss %v outside [0,1)", loss)
	}
	return nil
}

func (e *Event) validate(rounds int) error {
	if e.Round < 1 || e.Round >= rounds {
		return fmt.Errorf("round %d outside [1,%d) — past the run horizon", e.Round, rounds)
	}
	switch e.Kind {
	case KindFlashCrowd:
		if e.Count <= 0 && e.Fraction <= 0 {
			return fmt.Errorf("needs count > 0 or fraction > 0")
		}
		if e.Count < 0 || !(e.Fraction >= 0 && e.Fraction <= 10) {
			return fmt.Errorf("implausible size (count %d, fraction %v)", e.Count, e.Fraction)
		}
	case KindMassLeave:
		if !(e.Fraction > 0 && e.Fraction < 1) {
			return fmt.Errorf("fraction %v outside (0,1)", e.Fraction)
		}
	case KindGatewayFailure:
		if e.Groups <= 0 {
			return fmt.Errorf("needs groups > 0")
		}
	case KindNATShift:
		if e.NATRatio == nil && e.Mix == nil {
			return fmt.Errorf("needs nat_ratio and/or mix")
		}
		if e.NATRatio != nil && !(*e.NATRatio >= 0 && *e.NATRatio <= 1) {
			return fmt.Errorf("nat_ratio %v outside [0,1]", *e.NATRatio)
		}
		if m := e.Mix; m != nil {
			if m.RC < 0 || m.PRC < 0 || m.SYM < 0 {
				return fmt.Errorf("mix has negative fraction (%+v)", *m)
			}
			if sum := m.RC + m.PRC + m.SYM; !(sum >= 0.999 && sum <= 1.001) {
				return fmt.Errorf("mix fractions sum to %v, want 1", sum)
			}
		}
	case KindPartition:
		if !(e.Fraction > 0 && e.Fraction < 1) {
			return fmt.Errorf("fraction %v outside (0,1)", e.Fraction)
		}
		if e.DurationRounds < 0 {
			return fmt.Errorf("duration_rounds %d is negative", e.DurationRounds)
		}
	case KindHeal:
		// No parameters.
	case KindSetLink:
		var j int64
		var l float64
		if e.JitterMs != nil {
			j = *e.JitterMs
		}
		if e.Loss != nil {
			l = *e.Loss
		}
		if err := validateLink(j, l); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	return nil
}

// Parse decodes a scenario from JSON, rejecting unknown fields so corpus
// typos surface as errors rather than silently-ignored knobs.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return &s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Poisson draws a Poisson-distributed count with mean lambda from rng, using
// Knuth's multiplication method — exact, allocation-free, and deterministic
// given the RNG stream. exp(-λ) underflows around λ ≈ 745, where the sampler
// would silently saturate; Validate therefore rejects churn rates above
// MaxChurnRate, and other callers must bound lambda themselves.
func Poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}
