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
//	net!  the simulated network (see simnet.Network.State): peers, NAT devices
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
	st.capture(w.Codec(), now)
	if err := w.Commit(); err != nil {
		return "", err
	}
	return path, nil
}

// headerState walks the opening of the exp! section: the barrier time of the
// snapshot and the config JSON. A restore needs both before a run state exists
// to walk the rest into.
func headerState(c *snapshot.Codec, now int64, cfgJSON []byte) (int64, []byte) {
	c.Section(secExp)
	return c.I64(now), c.Bytes32(cfgJSON)
}

// capture serializes the complete world state at barrier time now.
func (st *runState) capture(c *snapshot.Codec, now int64) {
	cfgJSON, err := json.Marshal(st.cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: config does not marshal: %v", err)) // static shape, cannot fail
	}
	headerState(c, now, cfgJSON)
	st.state(c, now)
}

// state walks everything of the world that follows the payload's header, at
// barrier time now: the one field list capture writes and restore reads. A
// restore walks into this freshly wired run state, whose world it builds on
// the way; the caller discards st whole if the codec ends in an error. The
// processed-event count and the pending shuffle ticks are returned because
// the kernel takes them only once the clocks are set (see restore).
func (st *runState) state(c *snapshot.Codec, now int64) (processed uint64, ticks []sim.Key) {
	// Remainder of exp!: static-RVP assignment state.
	ids := make([]ident.NodeID, 0, len(st.rvpOf))
	for id := range st.rvpOf {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	if nRVP := c.Count(len(ids), 16); c.Restoring() {
		ids = make([]ident.NodeID, nRVP)
		st.rvpOf = make(map[ident.NodeID]ident.NodeID, nRVP)
	}
	for _, id := range ids {
		id = ident.NodeID(c.U64(uint64(id)))
		st.rvpOf[id] = ident.NodeID(c.U64(uint64(st.rvpOf[id])))
	}
	if nPub := c.Count(len(st.publicIDs), 8); c.Restoring() {
		st.publicIDs = make([]ident.NodeID, nPub)
	}
	for i, id := range st.publicIDs {
		st.publicIDs[i] = ident.NodeID(c.U64(uint64(id)))
	}

	c.Section(secKern)
	processed = c.U64(st.kern.Processed())
	if !c.Restoring() {
		for i := 0; i < st.kern.Shards(); i++ {
			st.kern.Shard(i).EachTick(func(k sim.Key) { ticks = append(ticks, k) })
		}
		// Global key order: shard-count-invariant bytes, and the resuming run's
		// per-shard subsequences stay sorted whatever its shard count.
		slices.SortFunc(ticks, sim.Key.Compare)
	}
	if nTicks := c.Count(len(ticks), 8+8+8); c.Restoring() {
		ticks = make([]sim.Key, nTicks)
	}
	for i := range ticks {
		tk := &ticks[i]
		tk.At = c.I64(tk.At)
		tk.Actor = c.U64(tk.Actor)
		tk.Seq = c.U64(tk.Seq)
	}
	if c.Err() != nil {
		return
	}

	// The network restores peers in attachment order, calling back once per
	// peer to build its engine — which replays adversary cohort registration
	// in the original registration order — and wire the health accumulators
	// before the eng! section replays views through their mutation hooks.
	st.net.State(c, func(p *simnet.Peer) core.Engine {
		self := p.Descriptor()
		if st.cfg.Protocol == ProtoStaticRVP && self.Class.Natted() {
			// The engine's constructor panics on a natted peer without an RVP
			// (a host bug, on the fresh path); a damaged assignment table must
			// fail the restore instead. The RVP of a valid snapshot was attached
			// before the peer that was assigned it.
			if rvp := st.net.Peer(st.rvpOf[p.ID]); rvp == nil || rvp.Class != ident.Public {
				c.Fail("natted peer %v has no public RVP attached before it", p.ID)
				return nil
			}
		}
		eng := st.engineFor(int(p.ID)-1, self)
		if st.health != nil {
			st.health.AddPeer(p.ID)
			eng.View().SetObserver(st.health.Observer(p.Shard))
		}
		return eng
	})
	// The network admits only IDs 1..n, each once, into a roster of n: dense
	// by construction, so all that is left to refuse is n = 0.
	if c.Restoring() && c.Err() == nil && st.net.PeerCount() == 0 {
		c.Fail("empty peer roster")
	}
	if c.Err() != nil {
		return
	}

	c.Section(secEng)
	st.net.EachPeer(func(p *simnet.Peer) {
		if c.Err() != nil {
			return
		}
		// Adversary wrappers are rebuilt structurally on restore (cohort
		// membership is a pure function of seed and peer index); only the
		// wrapper's private RNG position is state. A branch may change
		// cohorts: a newly wrapped peer keeps its fresh seed-derived stream, a
		// newly honest one reads past the old position and drops it.
		w, _ := p.Engine.(*adversary.Engine)
		if c.Bool(w != nil) {
			if w != nil {
				w.State(c)
			} else {
				c.U64(0)
			}
		}
		src := st.engineSrcs[int(p.ID)-1]
		src.SetState(c.U64(src.State()))
		honest(p).State(c)
	})
	if c.Err() != nil {
		return
	}
	if c.Restoring() && st.health != nil {
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

	c.Section(secRun)
	st.rng.Src.SetState(c.U64(st.rng.Src.State()))
	if nSel := c.Count(len(st.selections), 4); c.Restoring() {
		st.selections = make([]int32, nSel)
	}
	for i, v := range st.selections {
		st.selections[i] = int32(c.U32(uint32(v)))
	}
	if c.Restoring() {
		st.warmup, st.series = new([]uint64), new([]SamplePoint)
	}
	if c.Bool(now >= st.measureAfter) { // the warmup baseline has been taken
		if n := c.Count(len(*st.warmup), 8); c.Restoring() {
			*st.warmup = make([]uint64, n)
		}
		for i, b := range *st.warmup {
			(*st.warmup)[i] = c.U64(b)
		}
	}
	if nPts := c.Count(len(*st.series), 4+8+8+4+8+8+8+8); c.Restoring() {
		*st.series = make([]SamplePoint, nPts)
	}
	for i := range *st.series {
		(*st.series)[i].state(c)
	}

	c.Section(secScn)
	if c.Restoring() && !st.cfg.Scenario.Quiescent() {
		st.scn = newScenarioDriver(st)
	}
	d := st.scn
	if c.Bool(d != nil) {
		if d == nil {
			// A branch dropped the scenario: walk its state into a driver that
			// nothing runs.
			d = newScenarioDriver(st)
		}
		d.state(c)
	}
	return
}

// state walks one sample of the health series.
func (pt *SamplePoint) state(c *snapshot.Codec) {
	pt.Round = int(c.U32(uint32(pt.Round)))
	pt.BiggestCluster = c.F64(pt.BiggestCluster)
	pt.StaleFraction = c.F64(pt.StaleFraction)
	pt.AlivePeers = int(c.U32(uint32(pt.AlivePeers)))
	pt.Joins = c.U64(pt.Joins)
	pt.Leaves = c.U64(pt.Leaves)
	pt.Eclipse = c.F64(pt.Eclipse)
	pt.ColluderShare = c.F64(pt.ColluderShare)
}

// state walks the timeline counters.
func (s *ScenarioStats) state(c *snapshot.Codec) {
	s.Joins = c.U64(s.Joins)
	s.Leaves = c.U64(s.Leaves)
	s.GatewayFailures = c.U64(s.GatewayFailures)
	s.PartitionRounds = int(c.I64(int64(s.PartitionRounds)))
}

// state walks the scenario driver: stream positions, the live link model and
// arrival distribution, partition bookkeeping, timeline stats. Restoring
// overlays them on a freshly constructed driver, so the snapshot's current
// values win over the scenario's initial ones.
func (d *scenarioDriver) state(c *snapshot.Codec) {
	d.churnRNG.Src.SetState(c.U64(d.churnRNG.Src.State()))
	d.topoRNG.Src.SetState(c.U64(d.topoRNG.Src.State()))
	// A branch may change the population's link-policy need; apply what
	// overlaps, keep fresh seed-derived streams for the rest.
	nLink := c.Count(len(d.linkRNGs), 8)
	for i := 0; i < nLink; i++ {
		if i < len(d.linkRNGs) {
			src := d.linkRNGs[i].Src
			src.SetState(c.U64(src.State()))
		} else {
			c.U64(0)
		}
	}
	d.jitterMs = c.I64(d.jitterMs)
	d.loss = c.F64(d.loss)
	d.natRatio = c.F64(d.natRatio)
	d.mix.RC = c.F64(d.mix.RC)
	d.mix.PRC = c.F64(d.mix.PRC)
	d.mix.SYM = c.F64(d.mix.SYM)
	d.partSince = int(c.I64(int64(d.partSince)))
	d.partFraction = c.F64(d.partFraction)
	d.partGen = int(c.U32(uint32(d.partGen)))
	d.healRound = int(c.I64(int64(d.healRound)))
	d.stats.state(c)
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

// configsMatch reports whether two configs share one Identity once the
// scenario, which a resume may branch onto, is set aside.
func configsMatch(a, b Config) bool {
	a.Scenario, b.Scenario = nil, nil
	aj, errA := a.Identity()
	bj, errB := b.Identity()
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
	st, err := restoreWorld(r.Codec(), opt)
	r.Close() // read-only: nothing to lose
	if err != nil {
		return Result{}, err
	}
	return st.runToHorizon()
}

// restoreWorld decodes a whole snapshot payload into a freshly wired run
// state, ready to run on from the snapshot time.
func restoreWorld(c *snapshot.Codec, opt ResumeOptions) (*runState, error) {
	resumeT, cfgJSON := headerState(c, 0, nil)
	if c.Err() != nil {
		return nil, c.Err()
	}
	var cfg Config
	// Unmarshalled before the next read: the codec's bytes die with it.
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if resumeT < 0 || resumeT > int64(cfg.Rounds)*cfg.PeriodMs {
		return nil, fmt.Errorf("%w: snapshot time %d outside the run horizon", snapshot.ErrCorrupt, resumeT)
	}

	st := newRunState(cfg)
	if err := st.restore(c, resumeT); err != nil {
		return nil, err
	}
	return st, nil
}

// restore rebuilds the world from the codec (positioned after the payload's
// header) into this freshly wired run state. The whole payload decodes and
// validates before any event is armed with side effects beyond st itself, so
// a failure leaves nothing half-resumed — the caller discards st.
func (st *runState) restore(c *snapshot.Codec, resumeT int64) error {
	// Clocks first: the network refuses in-flight datagrams due before them.
	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).RestoreClock(resumeT, 0)
	}
	processed, ticks := st.state(c, resumeT)
	if err := c.Finish(); err != nil {
		return err
	}

	// Semantic validation: a payload can parse and still describe an
	// impossible world. Everything below must hold before arming anything.
	peers := st.net.Peers()
	if len(st.selections) != len(peers)+1 {
		return fmt.Errorf("%w: %d selection counters for %d peers", snapshot.ErrCorrupt, len(st.selections), len(peers))
	}
	for i, tk := range ticks {
		if tk.Actor < 1 || tk.Actor > uint64(len(peers)) {
			return fmt.Errorf("%w: tick %d names actor %d outside the roster", snapshot.ErrCorrupt, i, tk.Actor)
		}
		if tk.At < resumeT {
			return fmt.Errorf("%w: tick %d at %d predates the snapshot time %d", snapshot.ErrCorrupt, i, tk.At, resumeT)
		}
		if i > 0 && ticks[i-1].Compare(tk) >= 0 {
			return fmt.Errorf("%w: tick %d out of key order", snapshot.ErrCorrupt, i)
		}
	}
	// Scenario joins assign a natted newcomer one of these as its RVP for life.
	for _, id := range st.publicIDs {
		if p := st.net.Peer(id); p == nil || p.Class != ident.Public {
			return fmt.Errorf("%w: RVP pool names %v, not a public peer of the roster", snapshot.ErrCorrupt, id)
		}
	}

	// Re-arm the world. No tick predates the shard clocks and the global clock
	// is still at zero, so no arming can clamp a restored time; the global
	// clock jumps to the barrier time last.
	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).SetTickFn(st.tickActor)
	}
	for _, tk := range ticks {
		p := peers[tk.Actor-1]
		st.kern.Shard(p.Shard).TickAtKey(tk.At, tk.Actor, tk.Seq)
	}
	st.armGlobals(resumeT)
	if d := st.scn; d != nil && d.partSince >= 0 && d.healRound > 0 && int64(d.healRound)*st.cfg.PeriodMs > resumeT {
		d.armHeal(d.healRound)
	}

	// The processed-event total restores into the global clock alone: the
	// per-shard split depends on the writing run's shard count, the total
	// does not — and Processed() is what the determinism contract pins.
	st.kern.Global().RestoreClock(resumeT, processed)
	st.kern.RestoreNow(resumeT)
	st.installCheckpoint(resumeT)
	return nil
}
