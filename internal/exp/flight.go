package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/trace"
)

// flightState is the run-side half of the flight recorder: it feeds the
// periodic health samples to the trigger evaluator (internal/obs) and, when
// a trigger fires, freezes a forensic bundle from barrier context — the one
// place where the trace rings, health accumulators, and kernel sample ring
// may all be read coherently.
type flightState struct {
	spec *obs.FlightSpec
	rec  *obs.FlightRecorder
	// bundles lists the files written so far (raw JSON; each has a Chrome
	// trace_event sibling not listed here).
	bundles []string
	// err holds the first bundle-write failure; sampling runs inside
	// kernel callbacks that cannot return errors, so Run surfaces it after
	// the simulation ends.
	err error
}

func newFlightState(spec *obs.FlightSpec) *flightState {
	return &flightState{spec: spec, rec: obs.NewFlightRecorder(spec.Triggers)}
}

// observeFlight feeds one health sample to the trigger evaluator and
// captures a bundle per newly fired trigger. Called from the series sampler
// (a global event, hence barrier context). Determinism: evaluation is a
// pure function of the sample sequence, bundle filenames derive from
// (trigger, round), and nothing here feeds back into the simulation.
func (st *runState) observeFlight(pt SamplePoint, series []SamplePoint) {
	f := st.flight
	if f == nil {
		return
	}
	o := obs.Observation{Round: pt.Round, Cluster: pt.BiggestCluster, Eclipse: pt.Eclipse}
	if f.rec.Triggers().LeakCheck {
		// At a barrier no shard is mid-event, so every pooled message is
		// either queued or released and the books must balance.
		o.LeakErr = st.net.LeakCheck()
	}
	for _, trig := range f.rec.Observe(o) {
		path, err := st.captureBundle(trig, series)
		if err != nil {
			if f.err == nil {
				f.err = err
			}
			continue
		}
		f.bundles = append(f.bundles, path)
	}
}

// captureBundle freezes the forensic evidence for one fired trigger into
// <dir>/bundle-<trigger>-r<round>.json plus a Chrome trace_event sibling
// (.trace.json) loadable in Perfetto. Must run at barrier context.
func (st *runState) captureBundle(trig obs.Trigger, series []SamplePoint) (string, error) {
	f := st.flight
	cfgJSON, err := json.Marshal(st.cfg)
	if err != nil {
		return "", fmt.Errorf("exp: flight: marshal config: %w", err)
	}
	seriesJSON, err := json.Marshal(series)
	if err != nil {
		return "", fmt.Errorf("exp: flight: marshal series: %w", err)
	}
	b := obs.Bundle{
		Schema:  obs.BundleSchema,
		Trigger: trig,
		Run: obs.RunDescriptor{
			Protocol: st.cfg.Protocol.String(),
			Seed:     st.cfg.Seed,
			N:        st.cfg.N,
			Rounds:   st.cfg.Rounds,
			PeriodMs: st.cfg.PeriodMs,
			Shards:   st.cfg.Shards,
			Workers:  st.cfg.Workers,
			Config:   cfgJSON,
		},
		Health: obs.HealthValues(st.health),
		Series: seriesJSON,
	}
	if st.cfg.Scenario != nil {
		b.Run.Scenario = st.cfg.Scenario.Name
	}
	if st.cfg.Obs != nil {
		b.Kernel = obs.SnapshotKernel(st.cfg.Obs.Timing())
	}
	if ts := st.net.Trace(); ts != nil {
		b.Trace = ts.Merged()
	}
	totals := st.net.DropTotals()
	b.Drops = make(map[string]uint64, len(totals))
	for cause, info := range trace.DropCauses {
		b.Drops[info.Metric] = totals[cause]
	}

	if err := os.MkdirAll(f.spec.Dir, 0o755); err != nil {
		return "", fmt.Errorf("exp: flight: %w", err)
	}
	base := fmt.Sprintf("bundle-%s-r%04d", trig.Name, trig.Round)
	path := filepath.Join(f.spec.Dir, base+".json")
	if err := b.Write(path); err != nil {
		return "", fmt.Errorf("exp: flight: %w", err)
	}
	cf, err := os.Create(filepath.Join(f.spec.Dir, base+".trace.json"))
	if err != nil {
		return "", fmt.Errorf("exp: flight: %w", err)
	}
	if err := obs.WriteChromeTrace(cf, &b); err != nil {
		cf.Close()
		return "", fmt.Errorf("exp: flight: chrome export: %w", err)
	}
	if err := cf.Close(); err != nil {
		return "", fmt.Errorf("exp: flight: %w", err)
	}
	return path, nil
}
