package exp

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/view"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Result holds every metric measured at the end of a run. Fractions are in
// [0,1]; the printers convert to percent.
type Result struct {
	Cfg Config

	// BiggestCluster is the fraction of alive peers inside the largest
	// weakly-connected component of usable view edges (Figures 2, 10).
	BiggestCluster float64
	// StaleFraction is the average fraction of view entries that cannot be
	// contacted (Fig. 3).
	StaleFraction float64
	// NattedNonStale is the average fraction of non-stale view entries
	// that point to natted peers (Fig. 4); under uniform sampling it
	// equals the natted population share.
	NattedNonStale float64

	// Bandwidth in bytes per second per peer, sent+received, measured
	// after a warmup of one third of the run (Figures 7, 8).
	BytesPerSecAll    float64
	BytesPerSecPublic float64
	BytesPerSecNatted float64

	// AvgChainLen is the mean number of RVPs traversed to open an exchange
	// with a natted destination (Fig. 9).
	AvgChainLen float64

	// ChiSquareOK reports whether in-view representation passes the
	// chi-square uniformity test (the correctness/randomness check of §5);
	// ChiSquareStat is the statistic normalized by degrees of freedom.
	ChiSquareOK   bool
	ChiSquareStat float64
	// InDegree summarizes how often each alive peer is referenced.
	InDegree graph.DegreeSummary

	// CompletionRate is completed/initiated shuffles; NoRouteRate is the
	// fraction of initiations abandoned without a live RVP route.
	CompletionRate float64
	NoRouteRate    float64

	// Drops aggregates datagrams lost in the network.
	Drops simnet.DropStats
	// AlivePeers is the population after churn.
	AlivePeers int
	// TotalPeers is the total number of peers ever attached, including
	// scenario-driven arrivals.
	TotalPeers int
	// Scenario summarizes the environment timeline a scenario drove
	// (zero without one).
	Scenario ScenarioStats
	// Adversary holds the attack-centric metrics of a run with Byzantine
	// cohorts (zero without adversaries).
	Adversary AdversaryStats
	// Series holds the periodic snapshots requested by
	// Config.SampleEveryRounds, in round order.
	Series []SamplePoint
	// Recovery condenses Series into a recovery curve summary (zero when
	// no series was sampled).
	Recovery Recovery
	// Trace holds the merged network event trace when Config.TraceCapacity
	// is set: the most recent TraceCapacity events across all shards, in
	// global scheduler-key order. Bit-identical for any worker or shard
	// count. TraceDump is its rendered form (one event per line).
	Trace     []trace.Event
	TraceDump string
	// Bundles lists the forensic bundle files written by the flight
	// recorder (see Config.Flight), in trigger order.
	Bundles []string
	// EventsProcessed is the total number of simulator events the run
	// executed. It is part of the determinism contract: the same
	// (Config, Scenario, Seed) executes the same events for any worker or
	// shard count.
	EventsProcessed uint64
}

// ThroughputLine renders the run's one-line throughput summary for the given
// wall-clock duration. Every host prints this instead of computing events/s
// its own way.
func (r Result) ThroughputLine(wall time.Duration) string {
	return obs.ThroughputLine(r.EventsProcessed, wall, r.Cfg.Workers, r.Cfg.Shards)
}

// runState carries the wiring of one simulation run.
type runState struct {
	cfg  Config
	rng  *xrand.Stream
	kern *sim.ShardedScheduler
	// net holds the world, and the one roster: net.Peers()[i] is NodeID i+1
	// (IDs are dense, so once build returns no element is nil).
	net *simnet.Network
	// seeds is seedPeer's scratch.
	seeds []view.Descriptor

	// engineSrcs[i] is peer index i's engine RNG source, held so a
	// checkpoint can capture each engine's stream state (the engine itself
	// only sees the *rand.Rand draw surface).
	engineSrcs []*xrand.SplitMix64

	// warmup and series collect the round-boundary measurements armed on
	// the global queue (see armGlobals); fields rather than Run locals so
	// checkpoints can serialize and restore them.
	warmup *[]uint64
	series *[]SamplePoint

	// ck carries checkpoint wiring; nil without Config.Checkpoint.
	ck *ckState

	// selections counts, per peer, how often it was chosen as a gossip
	// target during the measurement window — the sample stream whose
	// uniformity stands in for the paper's diehard check. One shared array
	// indexed by NodeID, updated with atomic adds from the shard workers:
	// the final sums are order-independent, so a single int32 per peer
	// replaces what used to be one int per peer *per shard*. The slice is
	// replaced only at barriers (scenario joins).
	selections []int32
	// measureAfter is the warm-up boundary, a third of the horizon:
	// selections and byte rates are measured from there on.
	measureAfter int64

	// scn drives the environment timeline; nil when the scenario is nil
	// or quiescent (the legacy fast path).
	scn *scenarioDriver

	// adv carries the Byzantine wiring; nil when the scenario declares no
	// adversaries — honest runs never touch the adversary layer.
	adv *adversaryState

	// health, when Config.Obs is set, accumulates overlay health from
	// view-mutation hooks; nil otherwise (the unobserved fast path).
	health *obs.Health
	// flight, when Config.Flight is set, watches the health samples for
	// anomalies and freezes forensic bundles; nil otherwise.
	flight *flightState
	// walk is the measurement plane's latest result and run-lifetime scratch
	// (see walkOverlay).
	walk overlayWalk

	// Static-RVP assignment state, kept on the run so scenario joins can
	// extend it: rvpOf pins each natted peer to its fixed public RVP,
	// publicIDs is the assignment pool, resolver resolves live
	// descriptors against the network.
	rvpOf     map[ident.NodeID]ident.NodeID
	publicIDs []ident.NodeID
	resolver  core.RVPResolver
}

// Run executes one experiment point and returns its measurements. The run
// is a pure function of (Config, Scenario, Seed): the worker count — and
// even the shard count — change only how fast it finishes.
func Run(cfg Config) (Result, error) {
	cfg = cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	st := newRunState(cfg)
	st.build()
	st.bootstrap()
	st.schedule()
	st.armGlobals(-1)
	st.installCheckpoint(-1)
	return st.runToHorizon()
}

// runToHorizon runs a wired world to the end of its run and measures it.
func (st *runState) runToHorizon() (Result, error) {
	end := int64(st.cfg.Rounds) * st.cfg.PeriodMs
	st.kern.RunUntil(end)
	return st.finish(end)
}

// newRunState wires the kernel, the network and the observability surface of
// one run. It performs no world construction: the fresh path follows with
// build/bootstrap/schedule, the resume path with a snapshot restore.
func newRunState(cfg Config) *runState {
	if cfg.Flight != nil {
		// Flight bundles freeze health and kernel snapshots and are fed by
		// the periodic health samples: arm both when the host didn't.
		if cfg.Obs == nil {
			cfg.Obs = obs.NewHub()
		}
		if cfg.SampleEveryRounds <= 0 {
			cfg.SampleEveryRounds = 1
		}
	}
	shards := cfg.Shards
	st := &runState{
		cfg:  cfg,
		rng:  xrand.NewStream(cfg.Seed),
		kern: sim.NewSharded(shards, cfg.Workers, cfg.LatencyMs),
	}
	// Echo the effective execution shape (workers clamp to shards) so
	// Result.Cfg reports what actually ran.
	st.cfg.Workers = st.kern.Workers()
	st.net = simnet.NewSharded(st.kern, cfg.LatencyMs)
	if cap := cfg.traceCapacity(); cap > 0 {
		// Per-shard rings written lock-free from the delivery path, merged
		// on demand in scheduler-key order: tracing works at any worker and
		// shard count and never perturbs the run.
		st.net.SetTrace(trace.NewSharded(shards, cap))
	}
	if cfg.Obs != nil {
		// Bind the observability surface before any peer exists: health
		// hooks must see every view mutation from the first bootstrap on.
		cfg.Obs.BindSim(obs.RunInfo{
			Shards: shards, Workers: st.cfg.Workers,
			N: cfg.N, Rounds: cfg.Rounds, PeriodMs: cfg.PeriodMs,
		})
		st.health = cfg.Obs.Health()
		st.kern.SetProbe(cfg.Obs.Timing())
		st.net.SetObs(cfg.Obs.Registry())
		if ts := st.net.Trace(); ts != nil {
			// Expose the rings on the hub so the live ops endpoint can
			// serve /debug/trace through the barrier tap.
			cfg.Obs.SetTrace(ts)
		}
	}
	if cfg.Flight != nil {
		st.flight = newFlightState(cfg.Flight)
	}
	st.measureAfter = int64(cfg.Rounds) / 3 * cfg.PeriodMs
	st.adv = newAdversaryState(cfg)
	// The static-RVP resolver resolves live descriptors lazily against the
	// network; the assignment map it reads is filled by build (fresh runs)
	// or the snapshot restore.
	st.resolver = func(id ident.NodeID) (view.Descriptor, bool) {
		rid, ok := st.rvpOf[id]
		if !ok {
			return view.Descriptor{}, false
		}
		p := st.net.Peer(rid)
		if p == nil {
			return view.Descriptor{}, false
		}
		return p.Descriptor(), true
	}
	return st
}

// armGlobals schedules the round-boundary work — the warmup byte snapshot,
// series samples, legacy churn, the scenario timeline — on the kernel's
// global queue: at a barrier, global events fire before any shard event of
// the same round, in arming order (which is therefore part of the
// determinism contract; resume re-arms in the same order). Only events
// strictly after the given time are armed: fresh runs pass -1 (arm
// everything), resumed runs the snapshot time, whose past events are already
// reflected in the restored state.
func (st *runState) armGlobals(after int64) {
	cfg := st.cfg
	if st.measureAfter > after {
		st.warmup = st.snapshotBytesAt(st.measureAfter)
	} else if st.warmup == nil {
		st.warmup = &[]uint64{}
	}
	st.scheduleSeries(after)

	if cfg.ChurnAtRound > 0 {
		churnAt := int64(cfg.ChurnAtRound) * cfg.PeriodMs
		if churnAt > after {
			st.kern.Global().At(churnAt, func() { st.applyChurn() })
		}
	}
	// The scenario driver is armed last: at a shared round boundary the
	// health sample and the legacy churn fire before that round's scenario
	// events. A quiescent scenario installs nothing, keeping the run
	// bit-identical to the no-scenario path.
	if !cfg.Scenario.Quiescent() {
		if st.scn == nil {
			st.scn = newScenarioDriver(st)
		}
		st.scn.arm(after)
	}
}

// finish closes the books of a run that reached its RunUntil exit and
// computes the Result.
func (st *runState) finish(end int64) (Result, error) {
	cfg := st.cfg
	// Message-pool books must balance at the end of every run: each message
	// drawn from a shard pool is either back in a pool or still queued as an
	// undelivered datagram. Batched delivery recycles messages on the hot
	// path, so a leak here would otherwise only surface as slow memory
	// growth.
	if err := st.net.LeakCheck(); err != nil {
		return Result{}, err
	}
	if st.flight != nil && st.flight.err != nil {
		return Result{}, st.flight.err
	}
	if st.ck != nil {
		if st.ck.err != nil {
			return Result{}, st.ck.err
		}
		if st.ck.interrupted != nil {
			// Checkpoint-then-exit: the world stopped at a barrier short of
			// the horizon, so no final measurement exists. The error carries
			// the snapshot to resume from.
			return Result{}, st.ck.interrupted
		}
	}
	if cfg.Obs != nil {
		// Barriers no longer fire: let the live endpoint read the trace
		// rings directly instead of waiting on the tap.
		cfg.Obs.MarkSimDone()
	}

	res := st.measure(end, *st.warmup)
	res.Series = *st.series
	res.Recovery = recoveryFrom(res.Series)
	res.EventsProcessed = st.kern.Processed()
	if st.scn != nil {
		res.Scenario = st.scn.finishStats()
	}
	if ts := st.net.Trace(); ts != nil {
		res.Trace = ts.Merged()
		res.TraceDump = trace.Format(res.Trace)
	}
	if st.flight != nil {
		res.Bundles = st.flight.bundles
	}
	return res, nil
}

// build creates the peers: classes assigned by NATRatio and Mix, shuffled
// deterministically so classes and IDs are uncorrelated.
func (st *runState) build() {
	cfg := st.cfg
	nNat := cfg.natted()
	classes := make([]ident.NATClass, 0, cfg.N)
	for i := 0; i < cfg.N-nNat; i++ {
		classes = append(classes, ident.Public)
	}
	classes = append(classes, cfg.Mix.classes(nNat)...)
	st.rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	// Static-RVP needs a global assignment natted peer -> public RVP (validate
	// has refused a config without a public peer). The descriptors do not
	// exist yet, so resolve lazily against the network (see the resolver in
	// newRunState). The assignment state lives on the run so scenario joins
	// can extend it mid-run.
	if cfg.Protocol == ProtoStaticRVP {
		st.rvpOf = make(map[ident.NodeID]ident.NodeID)
		for i, c := range classes {
			if c == ident.Public {
				st.publicIDs = append(st.publicIDs, ident.NodeID(i+1))
			}
		}
		for i, c := range classes {
			if c != ident.Public {
				st.rvpOf[ident.NodeID(i+1)] = st.publicIDs[st.rng.Intn(len(st.publicIDs))]
			}
		}
	}

	// Two passes: public peers first, so the static-RVP resolver can hand
	// natted peers their already-constructed rendez-vous descriptors.
	// UPnP capabilities are drawn per ID up front so they do not depend on
	// construction order.
	upnp := make([]bool, cfg.N)
	for i := range upnp {
		upnp[i] = classes[i].Natted() && st.rng.Float64() < cfg.UPnPFraction
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cfg.N; i++ {
			if (classes[i] == ident.Public) != (pass == 0) {
				continue
			}
			st.addPeer(ident.NodeID(i+1), classes[i], upnp[i])
		}
	}
}

// now returns the current barrier-context virtual time (setup time, or the
// global event being executed).
func (st *runState) now() int64 { return st.kern.Global().Now() }

// buildEngine constructs the honest engine for the peer at the given index.
// The engine RNG seed is derived independently from the run seed and the
// peer index (not drawn from a shared RNG chain), so each peer's stream is
// reproducible regardless of construction order — and of which worker of a
// parallel sweep runs this experiment point; the source is recorded in
// engineSrcs so checkpoints can capture the stream's position.
func (st *runState) buildEngine(idx int, self view.Descriptor) core.Engine {
	cfg := st.cfg
	id := ident.NodeID(idx + 1)
	src := xrand.NewSource(xrand.Mix(cfg.Seed, uint64(idx)))
	for len(st.engineSrcs) <= idx {
		st.engineSrcs = append(st.engineSrcs, nil)
	}
	st.engineSrcs[idx] = src
	ecfg := core.Config{
		Self:            self,
		ViewSize:        cfg.ViewSize,
		Selection:       cfg.Selection,
		Merge:           cfg.Merge,
		PushPull:        cfg.PushPull,
		HoleTimeout:     cfg.HoleTimeoutMs,
		LatencyBound:    2 * cfg.LatencyMs,
		RNG:             rand.New(src),
		EvictUnanswered: cfg.EvictUnanswered,
		// The engine allocates from (and releases to) its shard's
		// message pool, so recycling never crosses shard boundaries —
		// and shares its shard's scratch and descriptor intern state,
		// since all of a shard's engine calls are serialized.
		Msgs:   st.net.ShardPool(st.net.ShardOf(id)),
		Shared: st.net.ShardShared(st.net.ShardOf(id)),
	}
	switch cfg.Protocol {
	case ProtoNylon:
		return core.NewNylon(ecfg)
	case ProtoARRG:
		return core.NewARRG(ecfg, cfg.CacheSize)
	case ProtoStaticRVP:
		var own view.Descriptor
		if self.Class.Natted() {
			own, _ = st.resolver(self.ID)
		}
		return core.NewStaticRVP(ecfg, own, st.resolver)
	default:
		return core.NewGeneric(ecfg)
	}
}

// engineFor builds the full engine for peer index idx: the honest engine,
// decorated with its adversarial wrapper when the peer belongs to a cohort
// (counting the cohort and registering colluders — barrier context only).
// Checkpoint restore calls it per restored peer in attachment order, which
// replays cohort registration identically to the original construction.
func (st *runState) engineFor(idx int, self view.Descriptor) core.Engine {
	eng := st.buildEngine(idx, self)
	if st.adv != nil {
		eng = st.adv.wrap(idx, st.cfg.HoleTimeoutMs, eng)
	}
	return eng
}

func (st *runState) addPeer(id ident.NodeID, class ident.NATClass, upnp bool) *simnet.Peer {
	cfg := st.cfg
	factory := func(self view.Descriptor) core.Engine {
		return st.engineFor(int(id)-1, self)
	}
	var p *simnet.Peer
	if upnp {
		p = st.net.AddPeerUPnP(id, class, cfg.HoleTimeoutMs, factory)
	} else {
		p = st.net.AddPeer(id, class, cfg.HoleTimeoutMs, factory)
	}
	if st.health != nil {
		st.health.AddPeer(id)
		p.Engine.View().SetObserver(st.health.Observer(p.Shard))
	}
	return p
}

// kill departs one peer through every layer that tracks life: the health
// accumulators first (they need the view length before it freezes), then the
// network. Barrier-context only, like Network.Kill.
func (st *runState) kill(id ident.NodeID) {
	if st.health != nil {
		if p := st.net.Peer(id); p != nil && p.Alive {
			st.health.Kill(id, p.Engine.View().Len())
		}
	}
	st.net.Kill(id)
}

// bootstrap fills every view with random public peers (the paper's §5 setup)
// and installs the join-time NAT holes that make those initial references
// usable. When no public peers exist (100% NAT), random natted peers are
// used instead, with holes installed through the simulated introducer.
func (st *runState) bootstrap() {
	peers := st.net.Peers()
	var pool []*simnet.Peer
	for _, p := range peers {
		if p.Class == ident.Public {
			pool = append(pool, p)
		}
	}
	if len(pool) == 0 {
		pool = peers
	}
	for _, p := range peers {
		st.seedPeer(p, pool, st.rng.Rand)
	}
}

// hostEngine is what the runner needs of an honest engine beyond
// core.Engine: view seeding at bootstrap and join, and the checkpoint state
// walk. All four engines of internal/core have both.
type hostEngine interface {
	Bootstrap(now int64, seeds []view.Descriptor)
	State(c *snapshot.Codec)
}

// honest returns the honest engine of a peer. Adversarial wrappers are
// transparent to seeding and checkpointing: the engine underneath is reached.
func honest(p *simnet.Peer) hostEngine {
	return adversary.Unwrap(p.Engine).(hostEngine)
}

// seedPeer fills p's view with up to ViewSize distinct peers drawn from pool
// with rng, and installs the join-time NAT holes that make those references
// usable. A draw landing on p itself or on a peer already picked (a scan of at
// most ViewSize seeds) is consumed and skipped; attempts are capped so tiny
// pools terminate.
func (st *runState) seedPeer(p *simnet.Peer, pool []*simnet.Peer, rng *rand.Rand) {
	seeds := st.seeds[:0]
draw:
	for attempts := 0; len(pool) > 0 && len(seeds) < st.cfg.ViewSize && attempts < 20*st.cfg.ViewSize; attempts++ {
		cand := pool[rng.Intn(len(pool))]
		if cand == p {
			continue
		}
		for i := range seeds {
			if seeds[i].ID == cand.ID {
				continue draw
			}
		}
		seeds = append(seeds, cand.Descriptor())
		st.net.InstallHole(p, cand)
	}
	st.seeds = seeds
	honest(p).Bootstrap(st.now(), seeds)
}

// joinPool lists whom a peer joining mid-run may be seeded with: the alive
// peers other than p — public preferred, exactly like the time-zero bootstrap.
func (st *runState) joinPool(p *simnet.Peer) []*simnet.Peer {
	peers := st.net.Peers()
	pool := make([]*simnet.Peer, 0, len(peers))
	for _, publicOnly := range [...]bool{true, false} {
		for _, q := range peers {
			if q != p && q.Alive && (!publicOnly || q.Class == ident.Public) {
				pool = append(pool, q)
			}
		}
		if len(pool) > 0 {
			break
		}
	}
	return pool
}

// schedule arms the periodic shuffle of every peer with a random phase, so
// ticks interleave rather than firing in lockstep. The runner drives engines
// itself (rather than through Network.Tick) to observe the selected targets.
// Ticks are fn-less indexed events (see sim.Scheduler.TickAtKey) dispatched
// to one shared per-run callback: arming a peer's shuffle loop stores no
// closure, so a million peers cost a million 40-byte heap entries instead of
// a million captured funcs.
func (st *runState) schedule() {
	st.selections = make([]int32, st.cfg.N+1)
	for i := 0; i < st.kern.Shards(); i++ {
		st.kern.Shard(i).SetTickFn(st.tickActor)
	}
	for _, p := range st.net.Peers() {
		st.armTick(p, st.rng.Int63n(st.cfg.PeriodMs))
	}
}

// armTick starts a peer's periodic shuffle loop at the given absolute time,
// on the peer's shard. Every (re)arming draws the peer's next private event
// counter value as the ordering key, so tick tie-breaks are a pure function
// of the simulated world (see sim.Scheduler.AtKey).
func (st *runState) armTick(p *simnet.Peer, firstAt int64) {
	p.Seq++
	st.kern.Shard(p.Shard).TickAtKey(firstAt, uint64(p.ID), p.Seq)
}

// tickActor runs one shuffling period for the peer with NodeID actor and
// re-arms its next tick. It is the shared callback behind every tick event,
// running on the peer's shard.
func (st *runState) tickActor(actor uint64) {
	p := st.net.Peers()[actor-1]
	sched := st.kern.Shard(p.Shard)
	if p.Alive {
		outs := p.Engine.Tick(sched.Now())
		st.recordSelection(sched.Now(), outs)
		for _, s := range outs {
			st.net.Send(p, s)
		}
	}
	p.Seq++
	sched.TickAtKey(sched.Now()+st.cfg.PeriodMs, uint64(p.ID), p.Seq)
}

// recordSelection extracts the gossip target of a Tick's output — the final
// destination of its REQUEST or OPEN_HOLE, whichever appears first — into
// the shared selection counters. The adds are atomic because shards tick in
// parallel; sums are order-independent, so the result is deterministic.
func (st *runState) recordSelection(now int64, outs []core.Send) {
	if now < st.measureAfter {
		return
	}
	for _, s := range outs {
		k := s.Msg.Kind
		if k != wire.KindRequest && k != wire.KindOpenHole {
			continue
		}
		id := int(s.Msg.Dst.ID)
		if id >= 1 && id < len(st.selections) {
			atomic.AddInt32(&st.selections[id], 1)
		}
		return
	}
}

// applyChurn removes ChurnFraction of the alive peers uniformly at random,
// which removes public and natted peers proportionally to their numbers, as
// in the paper's Fig. 10 setup.
func (st *runState) applyChurn() {
	peers := st.net.Peers()
	perm := st.rng.Perm(len(peers))
	kill := int(st.cfg.ChurnFraction * float64(len(peers)))
	for _, idx := range perm[:kill] {
		st.kill(peers[idx].ID)
	}
}

// snapshotBytesAt schedules a per-peer byte-counter snapshot at the given
// time (as a global barrier event — it reads every shard's peers) and
// returns the slice that will hold it. The slice is sized at fire time, so
// the population may have grown since scheduling; peers joining after the
// snapshot simply have a zero baseline.
func (st *runState) snapshotBytesAt(at int64) *[]uint64 {
	snap := &[]uint64{}
	st.kern.Global().At(at, func() {
		peers := st.net.Peers()
		*snap = make([]uint64, len(peers))
		for i, p := range peers {
			(*snap)[i] = p.BytesSent + p.BytesRecv
		}
	})
	return snap
}

// usableEdge reports whether q could, right now, open an exchange with the
// view entry d — the negation of the paper's "stale reference".
func (st *runState) usableEdge(now int64, q *simnet.Peer, d view.Descriptor) bool {
	target := st.net.Peer(d.ID)
	if target == nil || !target.Alive {
		return false
	}
	// While a partition holds, no datagram crosses the cut: references to
	// the other side are stale by the paper's definition (communication
	// with them is impossible), which is what makes the health series
	// show the split and the heal.
	if st.net.PartitionActive() && q.Side != target.Side {
		return false
	}
	switch st.cfg.Protocol {
	case ProtoNylon:
		return st.nylonUsable(now, q, d)
	case ProtoStaticRVP:
		if !d.Class.Natted() {
			return true
		}
		// Usable iff the target's fixed RVP is alive: the target keeps
		// its hole toward it alive with keepalive PINGs for as long as
		// it lives, so the RVP is the single point of failure.
		rvp := st.net.Peer(st.rvpOf[d.ID])
		return rvp != nil && rvp.Alive
	default: // Generic, ARRG: plain reachability
		return st.net.Reachable(now, q, d)
	}
}

// nylonUsable walks the RVP chain from q toward d, checking at every hop
// that the datagram would actually be admitted by the hop's NAT, mirroring
// how an OPEN_HOLE (or relayed REQUEST) would travel.
func (st *runState) nylonUsable(now int64, q *simnet.Peer, d view.Descriptor) bool {
	if !d.Class.Natted() {
		return true
	}
	cur := q
	for depth := 0; depth < 16; depth++ {
		// See through adversary wrappers: a lying RVP's routing table still
		// advertises the chain — the edge *looks* usable, which is exactly
		// the lie the relay-denial metrics then expose.
		eng, ok := adversary.Unwrap(cur.Engine).(*core.Nylon)
		if !ok {
			return false
		}
		// Peek, not Next: these are other peers' tables, and measuring must
		// leave them as it found them.
		rvp, ok := eng.Routes().Peek(d.ID, now)
		if !ok {
			return false
		}
		hop := st.net.Peer(rvp.ID)
		if hop == nil || !hop.Alive {
			return false
		}
		// A relay chain cannot cross a partition cut either.
		if st.net.PartitionActive() && hop.Side != cur.Side {
			return false
		}
		if !st.net.ReachableEndpoint(now, cur, rvp.Addr) {
			return false
		}
		if rvp.ID == d.ID {
			return true
		}
		cur = hop
	}
	return false
}

// measure computes the Result at simulation end, merging the per-shard
// worlds (selection counts, drop statistics) without any locking: the run
// is over, every shard has quiesced.
func (st *runState) measure(end int64, warmupBytes []uint64) Result {
	res := Result{Cfg: st.cfg, Drops: st.net.Drops()}
	w := st.walkOverlay(st.kern.Now(), warmupBytes)
	sums := &w.sums
	alive, total := len(w.ids), st.net.PeerCount()
	seconds := float64(end-st.measureAfter) / 1000

	res.AlivePeers = alive
	res.TotalPeers = total
	res.StaleFraction = w.staleFraction()
	res.NattedNonStale = stats.Mean(w.natted)
	res.BiggestCluster = w.biggestCluster(total)
	if seconds > 0 && alive > 0 {
		res.BytesPerSecAll = float64(sums.bytesPublic+sums.bytesNatted) / seconds / float64(alive)
		if sums.alivePublic > 0 {
			res.BytesPerSecPublic = float64(sums.bytesPublic) / seconds / float64(sums.alivePublic)
		}
		if sums.aliveNatted > 0 {
			res.BytesPerSecNatted = float64(sums.bytesNatted) / seconds / float64(sums.aliveNatted)
		}
	}
	if sums.chainSamples > 0 {
		res.AvgChainLen = float64(sums.chainHops) / float64(sums.chainSamples)
	}
	if sums.initiated > 0 {
		res.CompletionRate = float64(sums.completed) / float64(sums.initiated)
		res.NoRouteRate = float64(sums.noroute) / float64(sums.initiated)
	}

	if st.adv != nil {
		st.measureAdversary(&res, w)
		res.Adversary.RelayDenied = sums.relayDenied
		res.Adversary.AdversaryDrops = sums.advDrops
		res.Adversary.HopLimitDrops = sums.hopLimitDrops
	}

	res.InDegree = w.dense.InDegree(total, w.ids, w.edges)
	// Randomness: chi-square over how often each alive peer was selected
	// as a gossip target during the measurement window (the sample stream;
	// the paper uses the diehard suite on the same stream).
	counts := make([]int, 0, alive)
	for _, id := range w.ids {
		counts = append(counts, int(st.selections[id]))
	}
	if len(counts) > 1 {
		if chi2, dof, err := stats.ChiSquareUniform(counts); err == nil && dof > 0 {
			res.ChiSquareStat = chi2 / float64(dof)
		}
		res.ChiSquareOK, _ = stats.ChiSquareUniformOK(counts)
	}
	return res
}
