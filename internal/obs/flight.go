package obs

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sim"
	"repro/internal/trace"
)

// BundleSchema identifies the forensic bundle format written by the flight
// recorder (Bundle.Schema). Bump it on any incompatible change.
const BundleSchema = "nylon-flight-bundle/v1"

// Trigger names, as they appear in Trigger.Name and bundle filenames.
const (
	TriggerStall    = "recovery-stall"
	TriggerEclipse  = "eclipse"
	TriggerCollapse = "cluster-collapse"
	TriggerLeak     = "pool-leak"
)

// Triggers declares the anomaly conditions the flight recorder watches. Each
// condition is evaluated against the run's periodic health samples; a zero
// field disarms its trigger. Trigger evaluation is a pure function of the
// sample sequence, so an armed recorder fires at the same round for any
// worker or shard count.
type Triggers struct {
	// StallRounds arms the recovery-stall trigger: fire after that many
	// consecutive samples whose biggest-cluster fraction stays below
	// StallBelow — the overlay sank and is not knitting itself back.
	StallRounds int
	// StallBelow is the cluster fraction below which a sample counts as
	// stalled. Zero defaults to 0.95, the harness's recovery threshold
	// (exp.RecoveryThreshold).
	StallBelow float64
	// EclipseAbove arms the eclipse trigger: fire when the eclipsed
	// fraction of honest peers reaches it.
	EclipseAbove float64
	// ClusterBelow arms the collapse trigger: fire the moment the
	// biggest-cluster fraction drops below it (no persistence required —
	// a collapse is an emergency, not a trend).
	ClusterBelow float64
	// LeakCheck arms the pool-imbalance trigger: the host runs the wire
	// message-pool leak check at every sample and any imbalance fires.
	LeakCheck bool
}

// Zero reports whether no trigger is armed.
func (t Triggers) Zero() bool {
	return t.StallRounds <= 0 && t.EclipseAbove <= 0 && t.ClusterBelow <= 0 && !t.LeakCheck
}

func (t Triggers) withDefaults() Triggers {
	if t.StallBelow == 0 {
		t.StallBelow = 0.95
	}
	return t
}

// FlightSpec configures the flight recorder a host arms on an experiment
// run: where to write bundles and which anomalies to watch for.
type FlightSpec struct {
	// Dir receives the forensic bundles (created if absent).
	Dir string
	// Triggers are the armed anomaly conditions.
	Triggers Triggers
}

// Observation is one periodic health sample as fed to the recorder.
type Observation struct {
	// Round is the shuffling round of the sample.
	Round int
	// Cluster is the biggest-cluster fraction.
	Cluster float64
	// Eclipse is the eclipsed fraction of honest peers (zero without
	// adversaries).
	Eclipse float64
	// LeakErr is the message-pool leak-check result (nil when balanced or
	// when Triggers.LeakCheck is off).
	LeakErr error
}

// Trigger records one fired anomaly condition.
type Trigger struct {
	// Name is one of the Trigger* constants.
	Name string `json:"name"`
	// Round is the sample round at which the condition fired.
	Round int `json:"round"`
	// Detail is a human-readable account of the threshold crossing.
	Detail string `json:"detail"`
}

// FlightRecorder evaluates armed triggers against the run's health samples.
// Each trigger kind fires at most once per run — the first crossing is the
// forensically interesting one, and one bundle per kind bounds the disk
// footprint of a run that stays unhealthy for thousands of rounds.
type FlightRecorder struct {
	trig     Triggers
	stallRun int
	fired    map[string]bool
}

// NewFlightRecorder creates a recorder with the given triggers armed.
func NewFlightRecorder(t Triggers) *FlightRecorder {
	return &FlightRecorder{trig: t.withDefaults(), fired: make(map[string]bool)}
}

// Triggers returns the armed conditions, defaults applied.
func (f *FlightRecorder) Triggers() Triggers { return f.trig }

// Observe feeds one health sample and returns the triggers that newly fired
// on it, in a fixed evaluation order (stall, eclipse, collapse, leak). The
// caller captures one bundle per returned trigger.
func (f *FlightRecorder) Observe(o Observation) []Trigger {
	var fired []Trigger
	add := func(name, detail string) {
		if f.fired[name] {
			return
		}
		f.fired[name] = true
		fired = append(fired, Trigger{Name: name, Round: o.Round, Detail: detail})
	}
	if f.trig.StallRounds > 0 {
		if o.Cluster < f.trig.StallBelow {
			f.stallRun++
		} else {
			f.stallRun = 0
		}
		if f.stallRun >= f.trig.StallRounds {
			add(TriggerStall, fmt.Sprintf("biggest cluster below %.2f for %d consecutive samples (now %.3f)",
				f.trig.StallBelow, f.stallRun, o.Cluster))
		}
	}
	if f.trig.EclipseAbove > 0 && o.Eclipse >= f.trig.EclipseAbove {
		add(TriggerEclipse, fmt.Sprintf("eclipsed fraction %.3f reached threshold %.2f", o.Eclipse, f.trig.EclipseAbove))
	}
	if f.trig.ClusterBelow > 0 && o.Cluster < f.trig.ClusterBelow {
		add(TriggerCollapse, fmt.Sprintf("biggest cluster %.3f fell below %.2f", o.Cluster, f.trig.ClusterBelow))
	}
	if f.trig.LeakCheck && o.LeakErr != nil {
		add(TriggerLeak, o.LeakErr.Error())
	}
	return fired
}

// RunDescriptor pins the run a bundle was captured from: enough to reproduce
// it bit-identically (the simulator is a pure function of the config and
// seed). Config carries the host's full serialized experiment config as an
// opaque document so obs needs no dependency on the experiment package.
type RunDescriptor struct {
	Protocol string          `json:"protocol"`
	Seed     int64           `json:"seed"`
	N        int             `json:"n"`
	Rounds   int             `json:"rounds"`
	PeriodMs int64           `json:"period_ms"`
	Shards   int             `json:"shards"`
	Workers  int             `json:"workers"`
	Scenario string          `json:"scenario,omitempty"`
	Config   json.RawMessage `json:"config,omitempty"`
}

// KernelSnapshot is the kernel timing probe frozen at capture time:
// aggregates plus the recent per-window phase samples (the kernel swimlane
// of the Chrome export).
type KernelSnapshot struct {
	Events        uint64             `json:"events"`
	ExecNs        int64              `json:"exec_ns"`
	BarrierNs     int64              `json:"barrier_ns"`
	Windows       int64              `json:"windows"`
	VirtualMs     int64              `json:"virtual_ms"`
	WindowSamples []sim.WindowSample `json:"window_samples,omitempty"`
}

// SnapshotKernel freezes the timing probe (nil in, nil out). Call only from
// barrier context or after the run: WindowSamples reads the barrier-owned
// sample ring.
func SnapshotKernel(t *sim.Timing) *KernelSnapshot {
	if t == nil {
		return nil
	}
	return &KernelSnapshot{
		Events:        t.Events(),
		ExecNs:        t.ExecNs(),
		BarrierNs:     t.BarrierNs(),
		Windows:       t.Windows(),
		VirtualMs:     t.VirtualMs(),
		WindowSamples: t.WindowSamples(),
	}
}

// Bundle is one forensic capture: the trigger that fired, the run it fired
// in, and the frozen evidence — merged trace tail, the health accumulators
// as /debug/vars shows them (HealthValues), a kernel snapshot, drop
// counters, and the health series up to the trigger. Series is an opaque
// document (the host's sample type) for the same reason as
// RunDescriptor.Config.
type Bundle struct {
	Schema  string            `json:"schema"`
	Trigger Trigger           `json:"trigger"`
	Run     RunDescriptor     `json:"run"`
	Health  map[string]any    `json:"health,omitempty"`
	Kernel  *KernelSnapshot   `json:"kernel,omitempty"`
	Drops   map[string]uint64 `json:"drops,omitempty"`
	Series  json.RawMessage   `json:"series,omitempty"`
	Trace   []trace.Event     `json:"trace"`
}

// Write writes the bundle as indented JSON to path.
func (b *Bundle) Write(path string) error {
	if b.Schema == "" {
		b.Schema = BundleSchema
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return fmt.Errorf("obs: marshal bundle: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBundle loads a bundle written by Write, rejecting unknown schemas.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, b.Schema, BundleSchema)
	}
	return &b, nil
}
