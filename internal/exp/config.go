// Package exp is the experiment harness of the reproduction: it builds
// simulated overlays per the paper's setup (§5), runs them on the
// discrete-event simulator, and measures every quantity the paper plots —
// biggest cluster, stale references, sampling randomness, bandwidth, RVP
// chain lengths, and churn resilience.
package exp

import (
	"fmt"
	"runtime"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/view"
)

// Protocol selects the engine under test.
type Protocol int

// Protocols.
const (
	// ProtoGeneric is the NAT-oblivious baseline of Fig. 1.
	ProtoGeneric Protocol = iota
	// ProtoNylon is the paper's contribution (Fig. 6).
	ProtoNylon
	// ProtoARRG is the reachable-peer-cache baseline of Drost et al. [6].
	ProtoARRG
	// ProtoStaticRVP is the fixed-public-rendez-vous strawman of §4.
	ProtoStaticRVP
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoGeneric:
		return "generic"
	case ProtoNylon:
		return "nylon"
	case ProtoARRG:
		return "arrg"
	case ProtoStaticRVP:
		return "static-rvp"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol parses a protocol name as printed by Protocol.String.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "generic":
		return ProtoGeneric, nil
	case "nylon":
		return ProtoNylon, nil
	case "arrg":
		return ProtoARRG, nil
	case "static-rvp":
		return ProtoStaticRVP, nil
	}
	return 0, fmt.Errorf("exp: unknown protocol %q (want generic, nylon, arrg or static-rvp)", s)
}

// NATMix describes how the natted population splits across NAT classes.
// Fractions must sum to 1.
type NATMix struct {
	RC, PRC, SYM float64
}

// DefaultMix is the paper's distribution: 50% RC, 40% PRC, 10% SYM (§5).
var DefaultMix = NATMix{RC: 0.5, PRC: 0.4, SYM: 0.1}

// classes deterministically expands the mix into per-peer classes for n
// natted peers, preserving exact proportions (largest remainder on the
// truncation).
func (m NATMix) classes(n int) []ident.NATClass {
	if n == 0 {
		return nil
	}
	nRC := int(m.RC * float64(n))
	nPRC := int(m.PRC * float64(n))
	nSYM := int(m.SYM * float64(n))
	out := make([]ident.NATClass, 0, n)
	for i := 0; i < nRC; i++ {
		out = append(out, ident.RestrictedCone)
	}
	for i := 0; i < nPRC; i++ {
		out = append(out, ident.PortRestrictedCone)
	}
	for i := 0; i < nSYM; i++ {
		out = append(out, ident.Symmetric)
	}
	for len(out) < n {
		out = append(out, ident.RestrictedCone)
	}
	return out
}

// Config is one experiment point.
type Config struct {
	// N is the number of peers (paper: 10,000; defaults here are smaller).
	N int
	// ViewSize is the partial view size (paper: 15 unless stated).
	ViewSize int
	// NATRatio is the fraction of peers behind NATs, in [0,1].
	NATRatio float64
	// Mix splits the natted population across classes.
	Mix NATMix
	// Protocol selects the engine.
	Protocol Protocol
	// Selection, Merge and PushPull configure the gossip dimensions.
	Selection view.Selection
	Merge     view.Merge
	PushPull  bool
	// PeriodMs is the shuffling period (paper: 5 s).
	PeriodMs int64
	// LatencyMs is the one-way message latency (paper: 50 ms).
	LatencyMs int64
	// HoleTimeoutMs is the NAT rule lifetime (paper: 90 s).
	HoleTimeoutMs int64
	// Rounds is the number of shuffling periods to simulate.
	Rounds int
	// Seed drives all randomness of the run.
	Seed int64

	// ChurnAtRound, when positive, removes ChurnFraction of the peers
	// (uniformly, hence proportionally to the public/natted split, as in
	// the paper) after that many rounds.
	ChurnAtRound  int
	ChurnFraction float64

	// Scenario, when non-nil and non-quiescent, drives a declarative
	// environment timeline over the run: continuous Poisson churn, flash
	// crowds, gateway failures, NAT-mix shifts, link jitter/loss, and
	// partitions (see internal/scenario). All scenario randomness draws
	// from streams derived from Seed, so the run stays a pure function of
	// (Config, Scenario, Seed). A nil or quiescent scenario leaves the run
	// bit-identical to one with no scenario at all.
	Scenario *scenario.Scenario

	// CacheSize is the reachable-peer cache size for ProtoARRG (default 8).
	CacheSize int

	// EvictUnanswered enables Jelasity-style eviction of shuffle targets
	// that fail to answer within one period. Off by default, matching the
	// paper's pseudocode; ablation A5 measures its effect on churn
	// recovery.
	EvictUnanswered bool

	// SampleEveryRounds, when positive, snapshots the overlay's health
	// (biggest cluster, stale fraction) every that many rounds into
	// Result.Series — e.g. for churn recovery curves.
	SampleEveryRounds int

	// TraceCapacity, when positive, records the last that many network
	// events (sends, deliveries, drops) per shard into per-shard trace
	// rings, merged into Result.Trace / Result.TraceDump in global
	// scheduler-key order. Tracing works at any worker and shard count and
	// never perturbs the run (TestTraceEffectInvariance pins both).
	TraceCapacity int

	// UPnPFraction is the fraction of natted peers whose NAT honours an
	// explicit port-mapping protocol (NAT-PMP / UPnP, the paper's §6
	// alternative): they keep their device but advertise a permanent
	// pinhole, making them publicly reachable. Ablation A6 sweeps it.
	UPnPFraction float64

	// Shards is the number of simulation shards (default 8, a fixed
	// constant — never derived from the machine). Results are invariant
	// under the shard count (see DESIGN.md §5): it is purely a throughput
	// knob bounding how many workers can help.
	Shards int
	// Workers is the number of OS threads executing shards in parallel
	// (default GOMAXPROCS, clamped to Shards). Results are bit-identical
	// for any worker count.
	Workers int

	// Obs, when non-nil, receives the run's observability surface: the
	// runner binds the hub to the run (per-shard metrics registry, health
	// accumulators, kernel timing probe) and hosts read it live or at the
	// end. Instrumentation never feeds back into the simulation, so an
	// observed run stays bit-identical to an unobserved one. A Hub binds to
	// exactly one run; give each run its own. Excluded from serialization:
	// it is host wiring, not an experiment parameter.
	Obs *obs.Hub `json:"-"`

	// Flight, when non-nil, arms the anomaly-triggered flight recorder: the
	// run's periodic health samples feed the spec's triggers, and each
	// trigger that fires freezes a forensic bundle (merged trace tail,
	// health and kernel snapshots, drop counters, series so far) into
	// Flight.Dir; Result.Bundles lists the files written. A flight-armed
	// run implies tracing (see traceCapacity) and health sampling
	// (SampleEveryRounds defaults to 1) and, like Obs, never feeds back
	// into the simulation. Host wiring, not an experiment parameter:
	// excluded from serialization.
	Flight *obs.FlightSpec `json:"-"`

	// VerifySamples re-derives every periodic series sample through the
	// legacy full-copy EntriesInto sweep and cross-checks the zero-copy
	// sampler and the incremental health accumulators against it, panicking
	// on divergence. A debugging and CI cross-check: it restores the O(N)
	// copying cost the sampler exists to avoid.
	VerifySamples bool

	// Checkpoint, when non-nil, arms crash-survivable checkpointing: the
	// run serializes its complete state into Dir at round boundaries (see
	// internal/snapshot and ResumeFile). Host wiring like Obs — a checkpointed
	// run's simulation is bit-identical to an unchecked one — and excluded
	// from serialization, so a snapshot never embeds its own spec.
	Checkpoint *CheckpointSpec `json:"-"`
}

// CheckpointSpec configures checkpoint writing for one run.
type CheckpointSpec struct {
	// Dir receives the snapshot files (created if missing), one per
	// checkpoint, named by round (see SnapshotFileName).
	Dir string
	// EveryRounds, when positive, writes a snapshot at the first kernel
	// barrier at or past every EveryRounds-round mark. Zero writes no
	// periodic snapshots (useful with Stop alone).
	EveryRounds int
	// Stop, when non-nil, is polled at every kernel barrier; returning true
	// makes the run write a final snapshot and exit with an
	// *InterruptedError carrying its path — the graceful-shutdown hook the
	// CLIs wire to SIGINT/SIGTERM.
	Stop func() bool
}

// Defaults fills unset fields with the paper's parameters scaled to a
// laptop-sized run and returns the result.
func (c Config) Defaults() Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.ViewSize == 0 {
		c.ViewSize = 15
	}
	if c.Mix == (NATMix{}) {
		c.Mix = DefaultMix
	}
	if c.PeriodMs == 0 {
		c.PeriodMs = 5000
	}
	if c.LatencyMs == 0 {
		c.LatencyMs = 50
	}
	if c.HoleTimeoutMs == 0 {
		c.HoleTimeoutMs = 90_000
	}
	if c.Rounds == 0 {
		c.Rounds = 300
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 8
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Zero-valued Selection/Merge already mean rand/blind; the paper's
	// reference configuration is (rand, healer, push/pull), which callers
	// set explicitly.
	return c
}

// DefaultFlightTraceCapacity is the per-shard trace ring capacity a
// flight-armed run records with when TraceCapacity is unset: bundles embed
// the merged trace tail, so the recorder needs rings to freeze.
const DefaultFlightTraceCapacity = 16384

// maxTraceEvents bounds TraceCapacity × Shards, the events the trace rings hold.
const maxTraceEvents = 1 << 24

// traceCapacity returns the effective per-shard trace ring capacity:
// TraceCapacity when set, else the flight default when the flight recorder
// is armed, else zero (tracing off).
func (c Config) traceCapacity() int {
	if c.TraceCapacity > 0 {
		return c.TraceCapacity
	}
	if c.Flight != nil {
		return DefaultFlightTraceCapacity
	}
	return 0
}

// natted returns how many of the N peers a fresh run puts behind NATs.
func (c Config) natted() int { return int(c.NATRatio*float64(c.N) + 0.5) }

func (c Config) validate() error {
	if c.N <= 0 || c.Rounds <= 0 {
		return fmt.Errorf("exp: N and Rounds must be positive (got %d, %d)", c.N, c.Rounds)
	}
	// IDs index the network's roster and the walk sizes its regions by
	// ViewSize: both are bounded where they cost memory before any traffic.
	if c.N > simnet.MaxPeers {
		return fmt.Errorf("exp: N %d above the population cap %d", c.N, simnet.MaxPeers)
	}
	if c.ViewSize < 1 || c.ViewSize > 4096 {
		return fmt.Errorf("exp: ViewSize %d outside [1,4096]", c.ViewSize)
	}
	// Zero means "default" and Defaults has replaced it by now: what is left
	// to refuse is the negative, on which the kernel and the engines panic.
	if c.LatencyMs <= 0 || c.PeriodMs <= 0 || c.HoleTimeoutMs <= 0 || c.CacheSize <= 0 {
		return fmt.Errorf("exp: LatencyMs, PeriodMs, HoleTimeoutMs and CacheSize must be positive (got %d, %d, %d, %d)",
			c.LatencyMs, c.PeriodMs, c.HoleTimeoutMs, c.CacheSize)
	}
	// Negated so that NaN, which fails every comparison, is refused too.
	for _, f := range []struct {
		name string
		v    float64
	}{{"NATRatio", c.NATRatio}, {"Mix.RC", c.Mix.RC}, {"Mix.PRC", c.Mix.PRC}, {"Mix.SYM", c.Mix.SYM}, {"UPnPFraction", c.UPnPFraction}} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("exp: %s %v outside [0,1]", f.name, f.v)
		}
	}
	if s := c.Mix.RC + c.Mix.PRC + c.Mix.SYM; s < 0.999 || s > 1.001 {
		return fmt.Errorf("exp: NAT mix fractions sum to %v, want 1", s)
	}
	if c.Protocol == ProtoStaticRVP && c.natted() >= c.N {
		return fmt.Errorf("exp: protocol %v needs a public peer to bind natted peers to; NATRatio %v leaves none of %d", c.Protocol, c.NATRatio, c.N)
	}
	if !(c.ChurnFraction >= 0 && c.ChurnFraction < 1) {
		return fmt.Errorf("exp: ChurnFraction %v outside [0,1)", c.ChurnFraction)
	}
	if c.ChurnAtRound < 0 || c.ChurnAtRound >= c.Rounds {
		if c.ChurnAtRound != 0 {
			return fmt.Errorf("exp: ChurnAtRound %d outside (0,Rounds)", c.ChurnAtRound)
		}
	}
	if c.Shards < 1 || c.Shards > 4096 {
		return fmt.Errorf("exp: Shards %d outside [1,4096]", c.Shards)
	}
	// Every shard's trace ring is allocated whole before the first event.
	if c.TraceCapacity > maxTraceEvents/c.Shards {
		return fmt.Errorf("exp: TraceCapacity %d per shard × %d shards above %d events", c.TraceCapacity, c.Shards, maxTraceEvents)
	}
	if c.Workers < 1 {
		return fmt.Errorf("exp: Workers must be positive (got %d)", c.Workers)
	}
	if err := c.Scenario.Validate(c.Rounds); err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	if ck := c.Checkpoint; ck != nil {
		if ck.Dir == "" {
			return fmt.Errorf("exp: CheckpointSpec needs a directory")
		}
		if ck.EveryRounds < 0 {
			return fmt.Errorf("exp: CheckpointSpec.EveryRounds %d is negative", ck.EveryRounds)
		}
	}
	return nil
}
