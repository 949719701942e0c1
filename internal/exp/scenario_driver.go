package exp

import (
	"math/rand"

	"repro/internal/ident"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/xrand"
)

// Scenario RNG stream salts. Peer engine seeds are derived with the peer
// *index* as salt (see build), so the scenario streams sit at high constants
// no population count can collide with. Three independent streams keep the
// scenario dimensions decoupled: changing the link model does not shift
// which peers churn, and vice versa.
const (
	saltScenarioChurn uint64 = 0xc4a2_0000_0000_0001 // how many join/leave, who dies
	saltScenarioTopo  uint64 = 0xc4a2_0000_0000_0002 // who newcomers are, partition sides
	saltScenarioLink  uint64 = 0xc4a2_0000_0000_0003 // per-datagram jitter and loss
)

// ScenarioStats summarizes the environment timeline a scenario drove. All
// fields stay zero for runs without a (non-quiescent) scenario.
type ScenarioStats struct {
	// Joins and Leaves count scenario-driven arrivals and departures
	// (continuous churn, flash crowds, mass leaves, gateway failures).
	Joins, Leaves uint64
	// GatewayFailures counts failed gateway groups.
	GatewayFailures uint64
	// PartitionRounds is the total number of rounds a partition was in
	// force (clamped to the run horizon).
	PartitionRounds int
}

// scenarioDriver interprets a Scenario against the run clock. It owns every
// stochastic scenario decision, drawing from xrand.Mix-derived streams so a
// run stays a pure function of (Config, Scenario, Seed). It also implements
// simnet.LinkPolicy for the jitter/loss dimension.
//
// Everything except Transmit runs at barriers (on the kernel's global
// queue), where the whole world may be touched single-threaded. Transmit
// runs on shard goroutines mid-window, so its randomness comes from
// per-sender streams: each peer's jitter/loss draws depend only on that
// peer's own deterministic send sequence, never on the interleaving of
// senders across shards.
type scenarioDriver struct {
	st *runState
	sc *scenario.Scenario

	// The streams are capturable (xrand.Stream) so checkpoints can record
	// and replay exactly where each one stands.
	churnRNG *xrand.Stream
	topoRNG  *xrand.Stream
	// linkSeed is the root of the per-sender link streams; linkRNGs[i]
	// drives peer index i's jitter and loss draws. The slice is extended
	// at barriers when peers join and only indexed mid-window, so shards
	// never contend on it.
	linkSeed int64
	linkRNGs []*xrand.Stream

	// Live link model (mutated by set_link events).
	jitterMs int64
	loss     float64

	// Arrival distribution for new peers (mutated by nat_shift events).
	natRatio float64
	mix      NATMix

	// Active partition bookkeeping: partSince is the round the current
	// partition started, -1 when none; partFraction assigns sides to
	// peers joining mid-partition; partGen identifies the current
	// partition so a pending auto-heal cannot end a later one; healRound
	// is the round of the current partition's scheduled auto-heal (0 when
	// none) — checkpoints serialize it so a resumed run can re-arm the
	// heal, which lives in an unserializable closure.
	partSince    int
	partFraction float64
	partGen      int
	healRound    int

	stats ScenarioStats

	// aliveScratch is reused by the kill paths.
	aliveScratch []*simnet.Peer
}

func newScenarioDriver(st *runState) *scenarioDriver {
	cfg := st.cfg
	d := &scenarioDriver{
		st:        st,
		sc:        cfg.Scenario,
		churnRNG:  xrand.NewStream(xrand.Mix(cfg.Seed, saltScenarioChurn)),
		topoRNG:   xrand.NewStream(xrand.Mix(cfg.Seed, saltScenarioTopo)),
		linkSeed:  xrand.Mix(cfg.Seed, saltScenarioLink),
		natRatio:  cfg.NATRatio,
		mix:       cfg.Mix,
		partSince: -1,
	}
	if d.sc.NeedsLinkPolicy() {
		if l := d.sc.Link; l != nil {
			d.jitterMs, d.loss = l.JitterMs, l.Loss
		}
		d.growLinkRNGs()
	}
	return d
}

// growLinkRNGs extends the per-sender link streams to cover the current
// population. Stream i is derived from (seed, link salt, i) alone, so a
// peer's draws are independent of when it joined and of every other peer.
func (d *scenarioDriver) growLinkRNGs() {
	for len(d.linkRNGs) < d.st.net.PeerCount() {
		i := len(d.linkRNGs)
		d.linkRNGs = append(d.linkRNGs, xrand.NewStream(xrand.Mix(d.linkSeed, uint64(i))))
	}
}

// arm schedules the timeline from strictly after the given time onward
// (fresh runs pass -1): within one round boundary, events run in scheduling
// order — the health-series sample (armed earlier) first, then the round's
// continuous-churn draw, then explicit events in corpus order. Resumed runs
// pass the snapshot time; its past events already happened in the captured
// world, and the restored driver state (link model, partition bookkeeping)
// was overlaid on the constructor's initial values before arming.
func (d *scenarioDriver) arm(after int64) {
	cfg := d.st.cfg
	period := cfg.PeriodMs

	if d.sc.NeedsLinkPolicy() {
		d.st.net.SetLinkPolicy(d)
	}

	if c := d.sc.Churn; c != nil && (c.JoinsPerRound > 0 || c.LeavesPerRound > 0) {
		start := c.StartRound
		if start < 1 {
			start = 1
		}
		end := c.EndRound
		if end == 0 {
			end = cfg.Rounds - 1
		}
		fn := d.churnRound
		for r := start; r <= end; r++ {
			if int64(r)*period > after {
				d.st.kern.Global().At(int64(r)*period, fn)
			}
		}
	}

	for i := range d.sc.Events {
		ev := d.sc.Events[i]
		if int64(ev.Round)*period > after {
			d.st.kern.Global().At(int64(ev.Round)*period, func() { d.apply(ev) })
		}
	}
}

// Transmit implements simnet.LinkPolicy: uniform extra delay in
// [0, jitterMs], then an independent loss draw, both from the sender's
// private stream. The per-call draw order is part of the determinism
// contract — do not reorder.
func (d *scenarioDriver) Transmit(now int64, from ident.NodeID, srcEP, to ident.Endpoint, size uint64) (int64, bool) {
	rng := d.linkRNGs[int(from)-1]
	var extra int64
	if d.jitterMs > 0 {
		extra = rng.Int63n(d.jitterMs + 1)
	}
	drop := d.loss > 0 && rng.Float64() < d.loss
	return extra, drop
}

// churnRound applies one round of continuous Poisson churn.
func (d *scenarioDriver) churnRound() {
	c := d.sc.Churn
	joins := scenario.Poisson(d.churnRNG.Rand, c.JoinsPerRound)
	for i := 0; i < joins; i++ {
		d.join()
	}
	d.kill(scenario.Poisson(d.churnRNG.Rand, c.LeavesPerRound))
}

// apply dispatches one explicit timeline event.
func (d *scenarioDriver) apply(ev scenario.Event) {
	switch ev.Kind {
	case scenario.KindFlashCrowd:
		count := flashCount(ev, d.st.cfg.N)
		for i := 0; i < count; i++ {
			d.join()
		}
	case scenario.KindMassLeave:
		d.kill(int(ev.Fraction*float64(d.countAlive()) + 0.5))
	case scenario.KindGatewayFailure:
		d.failGateways(ev.Groups)
	case scenario.KindNATShift:
		if ev.NATRatio != nil {
			d.natRatio = *ev.NATRatio
		}
		if ev.Mix != nil {
			d.mix = NATMix{RC: ev.Mix.RC, PRC: ev.Mix.PRC, SYM: ev.Mix.SYM}
		}
	case scenario.KindPartition:
		d.partition(ev)
	case scenario.KindHeal:
		d.heal(ev.Round)
	case scenario.KindSetLink:
		d.jitterMs, d.loss = 0, 0
		if ev.JitterMs != nil {
			d.jitterMs = *ev.JitterMs
		}
		if ev.Loss != nil {
			d.loss = *ev.Loss
		}
	}
}

// join attaches one new peer mid-run: class and capabilities drawn from the
// current arrival distribution, engine seed derived from the peer index
// exactly as at build time, view seeded like the time-zero bootstrap, and a
// periodic shuffle armed with a random phase.
func (d *scenarioDriver) join() {
	st := d.st
	cfg := st.cfg
	id := ident.NodeID(st.net.PeerCount() + 1)

	class := ident.Public
	upnp := false
	if d.topoRNG.Float64() < d.natRatio {
		class = drawClass(d.topoRNG.Rand, d.mix)
		upnp = d.topoRNG.Float64() < cfg.UPnPFraction
	}
	if cfg.Protocol == ProtoStaticRVP {
		if class == ident.Public {
			st.publicIDs = append(st.publicIDs, id)
		} else if len(st.publicIDs) > 0 {
			// The strawman pins each natted peer to one fixed public RVP
			// for life — possibly one that has already departed, which is
			// exactly its weakness.
			st.rvpOf[id] = st.publicIDs[d.topoRNG.Intn(len(st.publicIDs))]
		}
	}

	p := st.addPeer(id, class, upnp)
	// Joins happen at barriers, so growing the shared selection counters
	// (and the per-sender link streams) is race-free.
	for len(st.selections) < st.net.PeerCount()+1 {
		st.selections = append(st.selections, 0)
	}
	if d.sc.NeedsLinkPolicy() {
		d.growLinkRNGs()
	}
	if d.partSince >= 0 && d.topoRNG.Float64() < d.partFraction {
		p.Side = 1
	}
	st.seedPeer(p, st.joinPool(p), d.topoRNG.Rand)
	st.armTick(p, st.now()+d.topoRNG.Int63n(cfg.PeriodMs))
	d.stats.Joins++
}

// drawClass samples a NAT class from the mix.
func drawClass(rng *rand.Rand, m NATMix) ident.NATClass {
	r := rng.Float64()
	switch {
	case r < m.RC:
		return ident.RestrictedCone
	case r < m.RC+m.PRC:
		return ident.PortRestrictedCone
	default:
		return ident.Symmetric
	}
}

// alive rebuilds the scratch list of alive peers, in peer-index order.
func (d *scenarioDriver) alive() []*simnet.Peer {
	d.aliveScratch = d.aliveScratch[:0]
	for _, p := range d.st.net.Peers() {
		if p.Alive {
			d.aliveScratch = append(d.aliveScratch, p)
		}
	}
	return d.aliveScratch
}

func (d *scenarioDriver) countAlive() int { return len(d.alive()) }

// kill removes up to k uniformly-drawn alive peers, always sparing at least
// one so the run keeps a measurable overlay.
func (d *scenarioDriver) kill(k int) {
	alive := d.alive()
	if k > len(alive)-1 {
		k = len(alive) - 1
	}
	for i := 0; i < k; i++ {
		j := d.churnRNG.Intn(len(alive))
		d.st.kill(alive[j].ID)
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		d.stats.Leaves++
	}
}

// flashCount is how many peers flash crowd ev attaches to a run of n initial
// peers: its Count, or else Fraction×n rounded to the nearest.
func flashCount(ev scenario.Event, n int) int {
	if ev.Count > 0 {
		return ev.Count
	}
	return int(ev.Fraction*float64(n) + 0.5)
}

// failGateways kills whole NAT-gateway groups: alive natted peers are
// chunked, in peer-index order, into logical groups of the scenario's
// gateway group size (the simulated network keeps one NAT device per peer,
// so the group models the shared physical gateway), and every member of each
// failing group dies together.
func (d *scenarioDriver) failGateways(groups int) {
	var natted []*simnet.Peer
	for _, p := range d.st.net.Peers() {
		if p.Alive && p.Class.Natted() {
			natted = append(natted, p)
		}
	}
	if len(natted) == 0 {
		return
	}
	// Rounded up without len+size-1, which overflows on a huge group size.
	size := d.sc.GroupSize()
	numGroups := (len(natted)-1)/size + 1
	if groups > numGroups {
		groups = numGroups
	}
	perm := d.churnRNG.Perm(numGroups)
	for _, g := range perm[:groups] {
		lo, hi := g*size, (g+1)*size
		if hi > len(natted) {
			hi = len(natted)
		}
		for _, p := range natted[lo:hi] {
			d.st.kill(p.ID)
			d.stats.Leaves++
		}
		d.stats.GatewayFailures++
	}
}

// partition splits the alive population: a minority side of ev.Fraction
// (clamped to keep both sides non-empty), the rest on side 0. Peers joining
// while the partition holds are assigned a side with the same bias.
func (d *scenarioDriver) partition(ev scenario.Event) {
	alive := d.alive()
	if len(alive) < 2 {
		return
	}
	if d.partSince >= 0 {
		// A new partition while one holds: close the first interval's
		// books, then re-cut.
		d.stats.PartitionRounds += ev.Round - d.partSince
	}
	k := int(ev.Fraction*float64(len(alive)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(alive)-1 {
		k = len(alive) - 1
	}
	perm := d.topoRNG.Perm(len(alive))
	for i, j := range perm {
		if i < k {
			alive[j].Side = 1
		} else {
			alive[j].Side = 0
		}
	}
	d.st.net.SetPartitionActive(true)
	d.partSince = ev.Round
	d.partFraction = ev.Fraction
	d.partGen++
	d.healRound = 0
	if ev.DurationRounds > 0 {
		healRound := ev.Round + ev.DurationRounds
		// A duration reaching past the run horizon behaves exactly like
		// duration 0: the partition stays in force through the final
		// measurement (a heal at the end boundary would fire just before
		// measure() and misreport a healed overlay).
		if healRound < d.st.cfg.Rounds {
			d.armHeal(healRound)
		}
	}
}

// armHeal schedules the active partition's auto-heal and records the round so
// a checkpoint can capture it (the scheduled closure itself cannot be
// serialized; a resumed run re-arms from healRound).
func (d *scenarioDriver) armHeal(round int) {
	d.healRound = round
	gen := d.partGen
	d.st.kern.Global().At(int64(round)*d.st.cfg.PeriodMs, func() {
		// Only heal the partition that scheduled this; a later cut owns
		// its own lifetime.
		if d.partGen == gen {
			d.heal(round)
		}
	})
}

// heal ends the active partition (idempotent).
func (d *scenarioDriver) heal(round int) {
	if d.partSince < 0 {
		return
	}
	d.stats.PartitionRounds += round - d.partSince
	d.partSince = -1
	d.healRound = 0
	d.st.net.SetPartitionActive(false)
	for _, p := range d.st.net.Peers() {
		p.Side = 0
	}
}

// finishStats closes open bookkeeping (a partition still active at the end
// of the run) and returns the run's scenario summary.
func (d *scenarioDriver) finishStats() ScenarioStats {
	if d.partSince >= 0 {
		d.stats.PartitionRounds += d.st.cfg.Rounds - d.partSince
		d.partSince = -1
	}
	return d.stats
}
