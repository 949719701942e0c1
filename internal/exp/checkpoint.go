package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/snapshot"
)

// This file implements crash-survivable checkpointing for experiment runs:
// capturing the complete world state at a kernel barrier into the
// nylon-snap/v1 container (see internal/snapshot) and resuming a run — or a
// deliberate branch of it — from such a capture.
//
// The invariant the whole design serves: a run that checkpoints at round k
// and resumes is bit-identical to one that ran straight through, for any
// worker or shard count on either side. Everything the simulation's future
// depends on is either serialized verbatim (peer and NAT state, views,
// routing tables, in-flight datagrams, RNG stream positions, accumulated
// measurements) or re-armed structurally from the config in the same
// relative order the fresh path arms it (the global timeline: warmup
// snapshot, series samples, churn, scenario events — closures cannot be
// serialized, but they are pure functions of the config and the round).
//
// Payload layout, in section order:
//
//	exp!  snapshot time, config JSON, static-RVP assignments
//	krn!  processed-event count, pending shuffle ticks (globally key-sorted)
//	net!  the simulated network (see simnet.SnapshotTo): peers, NAT devices
//	msg!  in-flight datagrams in scheduler-key order
//	drp!  drop totals
//	eng!  per-peer engine state in attachment order: adversary wrapper and
//	      engine RNG stream positions, then the protocol state
//	run!  harness state: root RNG, selection counters, warmup baseline,
//	      health series so far
//	scn!  scenario driver state: stream positions, live link model,
//	      partition bookkeeping, timeline stats
//
// Nothing in the payload depends on map iteration order, worker count or
// shard count: map-derived data is sorted before encoding, per-shard state is
// merged into canonical global orders (attachment order for peers, scheduler
// keys for events).

// Section tags of the experiment payload (the network's live in
// internal/simnet).
const (
	secExp  = "exp!"
	secKern = "krn!"
	secEng  = "eng!"
	secRun  = "run!"
	secScn  = "scn!"
)

// ErrConfigMismatch reports a resume whose caller-expected config does not
// match the snapshot's (ResumeOptions.Config). The sweep's prefix cache
// treats it — like every snapshot error — as "re-run from scratch".
var ErrConfigMismatch = errors.New("exp: snapshot config mismatch")

// InterruptedError is returned by a run whose CheckpointSpec.Stop asked it to
// exit: the world was checkpointed at the barrier and abandoned short of the
// horizon, so no Result exists. It carries what a host needs to resume.
type InterruptedError struct {
	// Path is the final snapshot written before exiting.
	Path string
	// Round is the (floor) round of the snapshot's barrier time.
	Round int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("exp: run interrupted at round %d, checkpoint at %s", e.Round, e.Path)
}

// SnapshotFileName names the snapshot written at the given round. The fixed
// width keeps lexicographic directory order equal to round order, so "the
// latest snapshot" is the last name in a sorted listing.
func SnapshotFileName(round int) string {
	return fmt.Sprintf("round-%08d.snap", round)
}

// removeStaleTemps deletes the temp files of snapshot writes that never
// reached their rename — a predecessor killed mid-write leaves one behind
// (hundreds of MiB at 100k peers) and nothing else would ever claim it; one
// run owns a checkpoint directory at a time. Best effort: a temp that cannot
// be removed only wastes disk. Finished snapshots never match the pattern.
func removeStaleTemps(dir string) {
	stale, _ := filepath.Glob(filepath.Join(dir, snapshot.TempPattern("round-*.snap")))
	for _, name := range stale {
		os.Remove(name)
	}
}

// ckState is the live checkpoint wiring of one run.
type ckState struct {
	spec *CheckpointSpec
	// everyMs is the periodic cadence (0: none); next the virtual time at or
	// past which the next periodic snapshot fires. Targets are strictly after
	// the resume point, so a resumed run never rewrites its source snapshot.
	everyMs int64
	next    int64
	// err aborts the run at the next barrier (snapshot write failures);
	// interrupted records a Stop-triggered exit. finish surfaces both.
	err         error
	interrupted *InterruptedError
}

// installCheckpoint arms the barrier checkpoint hook when the config asks for
// one, after clearing the directory of a killed predecessor's temp files.
// resumedFrom is the snapshot time for resumed runs, -1 for fresh ones.
func (st *runState) installCheckpoint(resumedFrom int64) {
	spec := st.cfg.Checkpoint
	if spec == nil {
		return
	}
	removeStaleTemps(spec.Dir)
	c := &ckState{spec: spec}
	if spec.EveryRounds > 0 {
		c.everyMs = int64(spec.EveryRounds) * st.cfg.PeriodMs
		c.next = (resumedFrom/c.everyMs + 1) * c.everyMs
	}
	st.ck = c
	st.kern.SetCheckpointFn(st.checkpointBarrier)
}

// checkpointBarrier is the kernel's checkpoint hook: at this barrier every
// event at or before now has executed and the staging mailboxes are drained,
// so the world is exactly serializable. Returning true stops the run.
func (st *runState) checkpointBarrier(now int64) bool {
	c := st.ck
	if c.spec.Stop != nil && c.spec.Stop() {
		path, err := st.writeSnapshot(now)
		if err != nil {
			c.err = err
		} else {
			c.interrupted = &InterruptedError{Path: path, Round: int(now / st.cfg.PeriodMs)}
		}
		return true
	}
	if c.everyMs > 0 && now >= c.next {
		c.next = (now/c.everyMs + 1) * c.everyMs
		if _, err := st.writeSnapshot(now); err != nil {
			c.err = err
			return true
		}
	}
	return false
}

// writeSnapshot captures the world at the given barrier time into the
// checkpoint directory, streaming the encoding straight into the file (see
// snapshot.Writer): atomic temp plus rename, so a kill mid-write never leaves
// a partial file under the final name.
func (st *runState) writeSnapshot(now int64) (string, error) {
	if err := os.MkdirAll(st.ck.spec.Dir, 0o755); err != nil {
		return "", fmt.Errorf("exp: checkpoint dir: %w", err)
	}
	path := filepath.Join(st.ck.spec.Dir, SnapshotFileName(int(now/st.cfg.PeriodMs)))
	w, err := snapshot.Create(path)
	if err != nil {
		return "", err
	}
	st.snapshotInto(w.Encoder(), now)
	if err := w.Commit(); err != nil {
		return "", err
	}
	return path, nil
}

// snapshotInto serializes the complete world state at barrier time now.
func (st *runState) snapshotInto(enc *snapshot.Encoder, now int64) {
	enc.Section(secExp)
	enc.I64(now)
	cfgJSON, err := json.Marshal(st.cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: config does not marshal: %v", err)) // static shape, cannot fail
	}
	enc.Bytes32(cfgJSON)
	ids := make([]ident.NodeID, 0, len(st.rvpOf))
	for id := range st.rvpOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	enc.U32(uint32(len(ids)))
	for _, id := range ids {
		enc.U64(uint64(id))
		enc.U64(uint64(st.rvpOf[id]))
	}
	enc.U32(uint32(len(st.publicIDs)))
	for _, id := range st.publicIDs {
		enc.U64(uint64(id))
	}

	enc.Section(secKern)
	enc.U64(st.kern.Processed())
	var ticks []sim.Key // pending shuffle-tick events
	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).EachTick(func(k sim.Key) { ticks = append(ticks, k) })
	}
	// Global key order: shard-count-invariant bytes, and the resuming run's
	// per-shard subsequences stay sorted whatever its shard count.
	slices.SortFunc(ticks, sim.Key.Compare)
	enc.U32(uint32(len(ticks)))
	for _, tk := range ticks {
		enc.I64(tk.At)
		enc.U64(tk.Actor)
		enc.U64(tk.Seq)
	}

	st.net.SnapshotTo(enc)

	enc.Section(secEng)
	st.net.EachPeer(func(p *simnet.Peer) {
		// Adversary wrappers are rebuilt structurally on restore (cohort
		// membership is a pure function of seed and peer index); only the
		// wrapper's private RNG position is state.
		if w, ok := p.Engine.(*adversary.Engine); ok {
			enc.Bool(true)
			enc.U64(w.RNGState())
		} else {
			enc.Bool(false)
		}
		enc.U64(st.engineSrcs[int(p.ID)-1].State())
		switch e := adversary.Unwrap(p.Engine).(type) {
		case *core.Nylon:
			e.SnapshotTo(enc)
		case *core.Generic:
			e.SnapshotTo(enc)
		case *core.ARRG:
			e.SnapshotTo(enc)
		case *core.StaticRVP:
			e.SnapshotTo(enc)
		default:
			panic(fmt.Sprintf("exp: unknown engine %T", p.Engine))
		}
	})

	enc.Section(secRun)
	enc.U64(st.rng.Src.State())
	enc.U32(uint32(len(st.selections)))
	for _, v := range st.selections {
		enc.U32(uint32(v))
	}
	warmupTaken := now >= st.measureAfter
	enc.Bool(warmupTaken)
	if warmupTaken {
		enc.U32(uint32(len(*st.warmup)))
		for _, b := range *st.warmup {
			enc.U64(b)
		}
	}
	enc.U32(uint32(len(*st.series)))
	for _, pt := range *st.series {
		enc.U32(uint32(pt.Round))
		enc.F64(pt.BiggestCluster)
		enc.F64(pt.StaleFraction)
		enc.U32(uint32(pt.AlivePeers))
		enc.U64(pt.Joins)
		enc.U64(pt.Leaves)
		enc.F64(pt.Eclipse)
		enc.F64(pt.ColluderShare)
	}

	enc.Section(secScn)
	if st.scn == nil {
		enc.Bool(false)
	} else {
		d := st.scn
		enc.Bool(true)
		enc.U64(d.churnRNG.Src.State())
		enc.U64(d.topoRNG.Src.State())
		enc.U32(uint32(len(d.linkRNGs)))
		for _, r := range d.linkRNGs {
			enc.U64(r.Src.State())
		}
		enc.I64(d.jitterMs)
		enc.F64(d.loss)
		enc.F64(d.natRatio)
		enc.F64(d.mix.RC)
		enc.F64(d.mix.PRC)
		enc.F64(d.mix.SYM)
		enc.I64(int64(d.partSince))
		enc.F64(d.partFraction)
		enc.U32(uint32(d.partGen))
		enc.I64(int64(d.healRound))
		enc.U64(d.stats.Joins)
		enc.U64(d.stats.Leaves)
		enc.U64(d.stats.GatewayFailures)
		enc.I64(int64(d.stats.PartitionRounds))
	}
}

// ResumeOptions parameterizes Resume. The zero value resumes the snapshot
// exactly as captured.
type ResumeOptions struct {
	// Workers and Shards, when positive, override the snapshot's execution
	// shape. Both are pure throughput knobs: results are bit-identical.
	Workers int
	Shards  int
	// Scenario, when non-nil, replaces the snapshot's scenario from the
	// resume point on — the branch entry point ("replay from round 400 with a
	// different adversary fraction"). Past timeline effects are baked into
	// the restored state; only events strictly after the snapshot time follow
	// the new scenario, and cohort membership is recomputed against it.
	// Branching away from an active partition leaves the cut in force with
	// nothing scheduled to heal it unless the new scenario heals explicitly.
	Scenario *scenario.Scenario
	// Checkpoint, when non-nil, arms checkpointing for the resumed run
	// (snapshots never embed their own checkpoint spec).
	Checkpoint *CheckpointSpec
	// Obs, when non-nil, attaches an observability hub to the resumed run.
	// Like Checkpoint it is host wiring a snapshot never carries.
	Obs *obs.Hub
	// Config, when non-nil, is the config the caller expects the snapshot to
	// carry. ResumeFile fails with ErrConfigMismatch unless they agree on
	// everything but execution shape, scenario and host wiring — the guard
	// that keeps the sweep's prefix cache from resuming the wrong world.
	Config *Config
}

// normalizeForMatch zeroes every Config field two runs may disagree on while
// still being resumable from one another's snapshots: execution shape
// (throughput knobs), the scenario (branching), and host wiring that never
// reaches the simulation.
func normalizeForMatch(c Config) Config {
	c.Workers = 0
	c.Shards = 0
	c.Scenario = nil
	c.Obs = nil
	c.Flight = nil
	c.Checkpoint = nil
	c.TraceCapacity = 0
	c.VerifySamples = false
	return c
}

// configsMatch compares two configs after defaulting (Run defaults before
// storing, callers may hand a sparse config) and normalization.
func configsMatch(a, b Config) bool {
	aj, errA := json.Marshal(normalizeForMatch(a.Defaults()))
	bj, errB := json.Marshal(normalizeForMatch(b.Defaults()))
	return errA == nil && errB == nil && string(aj) == string(bj)
}

// ResumeFile reconstructs the world from a snapshot file and runs it to the
// horizon. The resumed run is bit-identical to the capturing run having
// continued (for any worker or shard count), unless opt branches it.
//
// The payload is never held whole: the file is verified first
// (snapshot.Open), then streamed through the decoder that rebuilds the world.
// A damaged file fails with its typed envelope error before anything of opt —
// the hub, the checkpoint directory — has been touched; a payload that is
// corrupt, truncated or semantically invalid under a valid envelope fails
// with snapshot.ErrCorrupt before any event runs, and the world under
// construction is discarded whole, never half-resumed.
func ResumeFile(path string, opt ResumeOptions) (Result, error) {
	r, err := snapshot.Open(path)
	if err != nil {
		return Result{}, err
	}
	st, err := restoreWorld(r.Decoder(), opt)
	r.Close() // read-only: nothing to lose
	if err != nil {
		return Result{}, err
	}
	return st.runToHorizon()
}

// restoreWorld decodes a whole snapshot payload into a freshly wired run
// state, ready to run on from the snapshot time.
func restoreWorld(dec *snapshot.Decoder, opt ResumeOptions) (*runState, error) {
	dec.Section(secExp)
	resumeT := dec.I64()
	// Copied: the decoder's bytes die with its next read.
	cfgJSON := append([]byte(nil), dec.Bytes32()...)
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("%w: config: %v", snapshot.ErrCorrupt, err)
	}
	if opt.Config != nil && !configsMatch(cfg, *opt.Config) {
		return nil, fmt.Errorf("%w: snapshot is of a different experiment point", ErrConfigMismatch)
	}
	if opt.Workers > 0 {
		cfg.Workers = opt.Workers
	}
	if opt.Shards > 0 {
		cfg.Shards = opt.Shards
	}
	if opt.Scenario != nil {
		cfg.Scenario = opt.Scenario
	}
	cfg.Checkpoint = opt.Checkpoint
	cfg.Obs = opt.Obs
	cfg = cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if resumeT < 0 || resumeT > int64(cfg.Rounds)*cfg.PeriodMs {
		return nil, fmt.Errorf("%w: snapshot time %d outside the run horizon", snapshot.ErrCorrupt, resumeT)
	}

	st := newRunState(cfg)
	if err := st.restore(dec, resumeT); err != nil {
		return nil, err
	}
	return st, nil
}

// drvState is the decoded scenario-driver state, held until the payload fully
// validates.
type drvState struct {
	churn, topo                    uint64
	link                           []uint64
	jitterMs                       int64
	loss                           float64
	natRatio                       float64
	rc, prc, sym                   float64
	partSince                      int64
	partFraction                   float64
	partGen                        uint32
	healRound                      int64
	joins, leaves, gatewayFailures uint64
	partitionRounds                int64
}

// restore rebuilds the world from the decoder (positioned after the exp!
// header) into this freshly wired run state. The whole payload decodes and
// validates before any event is armed with side effects beyond st itself, so
// a failure leaves nothing half-resumed — the caller discards st.
func (st *runState) restore(dec *snapshot.Decoder, resumeT int64) error {
	// Remainder of exp!: static-RVP assignment state.
	nRVP := dec.Count(16)
	if nRVP > 0 {
		st.rvpOf = make(map[ident.NodeID]ident.NodeID, nRVP)
	}
	for i := 0; i < nRVP; i++ {
		id := ident.NodeID(dec.U64())
		st.rvpOf[id] = ident.NodeID(dec.U64())
	}
	nPub := dec.Count(8)
	for i := 0; i < nPub; i++ {
		st.publicIDs = append(st.publicIDs, ident.NodeID(dec.U64()))
	}

	dec.Section(secKern)
	processed := dec.U64()
	nTicks := dec.Count(8 + 8 + 8)
	ticks := make([]sim.Key, nTicks)
	for i := range ticks {
		ticks[i] = sim.Key{At: dec.I64(), Actor: dec.U64(), Seq: dec.U64()}
	}
	if dec.Err() != nil {
		return dec.Err()
	}

	// The network restores peers in attachment order, calling back once per
	// peer to build its engine — which replays adversary cohort registration
	// in the original registration order — and wire the health accumulators
	// before the eng! section replays views through their mutation hooks.
	st.net.RestoreFrom(dec, func(p *simnet.Peer) core.Engine {
		idx := int(p.ID) - 1
		for len(st.peers) <= idx {
			st.peers = append(st.peers, nil)
		}
		st.peers[idx] = p
		eng := st.engineFor(idx, p.Descriptor())
		if st.health != nil {
			st.health.AddPeer(p.ID)
			eng.View().SetObserver(st.health.Observer(p.Shard))
		}
		return eng
	})
	if dec.Err() != nil {
		return dec.Err()
	}
	if len(st.peers) == 0 {
		return fmt.Errorf("%w: empty peer roster", snapshot.ErrCorrupt)
	}
	for i, p := range st.peers {
		if p == nil {
			return fmt.Errorf("%w: peer roster has a hole at id %d", snapshot.ErrCorrupt, i+1)
		}
	}

	dec.Section(secEng)
	st.net.EachPeer(func(p *simnet.Peer) {
		if dec.Err() != nil {
			return
		}
		wrapped := dec.Bool()
		var wrapState uint64
		if wrapped {
			wrapState = dec.U64()
		}
		srcState := dec.U64()
		if dec.Err() != nil {
			return
		}
		st.engineSrcs[int(p.ID)-1].SetState(srcState)
		// A branch may change cohorts: apply the wrapper state only when the
		// resumed engine is wrapped too. A newly wrapped peer keeps its fresh
		// seed-derived stream; a newly honest peer drops the old state.
		if w, ok := p.Engine.(*adversary.Engine); ok && wrapped {
			w.SetRNGState(wrapState)
		}
		switch e := adversary.Unwrap(p.Engine).(type) {
		case *core.Nylon:
			e.RestoreFrom(dec)
		case *core.Generic:
			e.RestoreFrom(dec)
		case *core.ARRG:
			e.RestoreFrom(dec)
		case *core.StaticRVP:
			e.RestoreFrom(dec)
		default:
			dec.Fail("unknown engine %T", p.Engine)
		}
	})
	if dec.Err() != nil {
		return dec.Err()
	}
	if st.health != nil {
		// Close the books on dead peers: their replayed views froze at kill
		// time, and Kill folds each one's entry count and accumulated
		// indegree into the dead-side accumulators, exactly as the live run's
		// incremental path did.
		st.net.EachPeer(func(p *simnet.Peer) {
			if !p.Alive {
				st.health.Kill(p.ID, p.Engine.View().Len())
			}
		})
	}

	dec.Section(secRun)
	rootState := dec.U64()
	nSel := dec.Count(4)
	selections := make([]int32, nSel)
	for i := range selections {
		selections[i] = int32(dec.U32())
	}
	warmupTaken := dec.Bool()
	var warmup []uint64
	if warmupTaken {
		warmup = make([]uint64, dec.Count(8))
		for i := range warmup {
			warmup[i] = dec.U64()
		}
	}
	nPts := dec.Count(4 + 8 + 8 + 4 + 8 + 8 + 8 + 8)
	series := make([]SamplePoint, nPts)
	for i := range series {
		series[i] = SamplePoint{
			Round:          int(dec.U32()),
			BiggestCluster: dec.F64(),
			StaleFraction:  dec.F64(),
			AlivePeers:     int(dec.U32()),
			Joins:          dec.U64(),
			Leaves:         dec.U64(),
			Eclipse:        dec.F64(),
			ColluderShare:  dec.F64(),
		}
	}

	dec.Section(secScn)
	scnPresent := dec.Bool()
	var drv drvState
	if scnPresent {
		drv.churn = dec.U64()
		drv.topo = dec.U64()
		drv.link = make([]uint64, dec.Count(8))
		for i := range drv.link {
			drv.link[i] = dec.U64()
		}
		drv.jitterMs = dec.I64()
		drv.loss = dec.F64()
		drv.natRatio = dec.F64()
		drv.rc, drv.prc, drv.sym = dec.F64(), dec.F64(), dec.F64()
		drv.partSince = dec.I64()
		drv.partFraction = dec.F64()
		drv.partGen = dec.U32()
		drv.healRound = dec.I64()
		drv.joins, drv.leaves, drv.gatewayFailures = dec.U64(), dec.U64(), dec.U64()
		drv.partitionRounds = dec.I64()
	}
	if err := dec.Finish(); err != nil {
		return err
	}

	// Semantic validation: a payload can parse and still describe an
	// impossible world. Everything below must hold before arming anything.
	if nSel != len(st.peers)+1 {
		return fmt.Errorf("%w: %d selection counters for %d peers", snapshot.ErrCorrupt, nSel, len(st.peers))
	}
	for i, tk := range ticks {
		if tk.Actor < 1 || tk.Actor > uint64(len(st.peers)) {
			return fmt.Errorf("%w: tick %d names actor %d outside the roster", snapshot.ErrCorrupt, i, tk.Actor)
		}
		if tk.At < resumeT {
			return fmt.Errorf("%w: tick %d at %d predates the snapshot time %d", snapshot.ErrCorrupt, i, tk.At, resumeT)
		}
		if i > 0 && ticks[i-1].Compare(tk) >= 0 {
			return fmt.Errorf("%w: tick %d out of key order", snapshot.ErrCorrupt, i)
		}
	}

	// Adopt the decoded harness state and re-arm the world. Shard and global
	// clocks are still at zero, so no At-style arming can clamp a restored
	// time; the clocks jump to the barrier time last.
	st.rng.Src.SetState(rootState)
	st.selections = selections
	if warmupTaken {
		st.warmup = &warmup
	}
	st.series = &series

	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).SetTickFn(st.tickActor)
	}
	for _, tk := range ticks {
		p := st.peers[tk.Actor-1]
		st.kern.Shard(p.Shard).TickAtKey(tk.At, tk.Actor, tk.Seq)
	}
	st.armGlobals(resumeT)
	if st.scn != nil && scnPresent {
		d := st.scn
		d.churnRNG.Src.SetState(drv.churn)
		d.topoRNG.Src.SetState(drv.topo)
		// A branch may change the population's link-policy need; apply what
		// overlaps, keep fresh seed-derived streams for the rest.
		for i := 0; i < len(d.linkRNGs) && i < len(drv.link); i++ {
			d.linkRNGs[i].Src.SetState(drv.link[i])
		}
		// Overlay the live model after arm()'s init so the snapshot's current
		// values win over the scenario's initial ones.
		d.jitterMs, d.loss = drv.jitterMs, drv.loss
		d.natRatio = drv.natRatio
		d.mix = NATMix{RC: drv.rc, PRC: drv.prc, SYM: drv.sym}
		d.partSince = int(drv.partSince)
		d.partFraction = drv.partFraction
		d.partGen = int(drv.partGen)
		d.stats = ScenarioStats{
			Joins: drv.joins, Leaves: drv.leaves,
			GatewayFailures: drv.gatewayFailures,
			PartitionRounds: int(drv.partitionRounds),
		}
		if d.partSince >= 0 && drv.healRound > 0 && drv.healRound*st.cfg.PeriodMs > resumeT {
			d.armHeal(int(drv.healRound))
		}
	}

	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).RestoreClock(resumeT, 0)
	}
	// The processed-event total restores into the global clock alone: the
	// per-shard split depends on the writing run's shard count, the total
	// does not — and Processed() is what the determinism contract pins.
	st.kern.Global().RestoreClock(resumeT, processed)
	st.kern.RestoreNow(resumeT)
	st.installCheckpoint(resumeT)
	return nil
}
