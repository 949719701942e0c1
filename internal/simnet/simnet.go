// Package simnet is the simulated UDP network of the reproduction: it
// connects protocol engines through NAT devices with a fixed one-way latency,
// and accounts every byte sent and received per peer (the measurement behind
// Figures 7 and 8 of the paper).
//
// The model matches the paper's experimental setup (§5): event-driven, one
// peer per NAT device, message latency 50 ms by default, and NAT rules that
// expire 90 s after the last activity. Datagrams addressed to a natted peer
// traverse its NAT device, which admits or silently drops them according to
// its class and current filtering rules.
//
// Scenario runs may perturb the base model through a LinkPolicy (per-datagram
// latency jitter and probabilistic loss) and a partition mask (cross-side
// deliveries dropped at the cut).
//
// The network is sharded to match the kernel it runs on (see
// sim.ShardedScheduler and DESIGN.md §5): peers partition across shards by
// NodeID, each shard owns a delivery lane, a wire message pool and its own
// drop counters, and cross-shard traffic stages in per-shard outboxes that
// the kernel's barrier drains in deterministic (time, sender, per-sender seq)
// order into the lanes, holding back what a link delay carries past the
// window (see flush). A peer's state — engine, NAT device, traffic counters —
// is touched only by its own shard's events or at barriers, so windows run
// lock-free.
package simnet

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/intern"
	"repro/internal/nat"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/view"
	"repro/internal/wire"
)

// Peer is one simulated node: an engine plus its network attachment.
type Peer struct {
	ID    ident.NodeID
	Class ident.NATClass
	// Advertised is the class the peer's descriptor carries. It equals
	// Class except for UPnP/NAT-PMP peers, which sit behind a NAT but are
	// publicly reachable through an explicit port mapping and therefore
	// advertise Public.
	Advertised ident.NATClass
	Priv       ident.Endpoint // private endpoint (equals Addr for public peers)
	Addr       ident.Endpoint // advertised contact endpoint
	Device     *nat.Device    // nil for public peers
	Engine     core.Engine
	Alive      bool
	// Side is the peer's partition side. It only matters while a
	// partition is active (see SetPartitionActive): deliveries between
	// peers on different sides are dropped.
	Side uint8
	// Shard is the index of the shard owning the peer (NodeID mod shard
	// count). Only the owning shard's events touch the peer's state
	// between barriers.
	Shard int
	// Seq is the peer's private event counter: every event the peer
	// schedules (a periodic tick, a datagram transmission) draws the next
	// value as its ordering key, making same-time tie-breaks a pure
	// function of the simulated world (see sim.Key).
	Seq uint64
	// StampSeq counts the messages the peer originated (hop 0), numbering
	// its causal chains: (ID, StampSeq) names every forwarding chain the
	// peer starts (see internal/trace). Advanced unconditionally at send
	// time so traced and untraced runs stay bit-identical.
	StampSeq uint32

	// Traffic counters, in bytes and datagrams. Sent counts every datagram
	// the engine emitted; Recv counts only datagrams actually delivered
	// (NAT drops never reach the peer).
	BytesSent, BytesRecv uint64
	MsgsSent, MsgsRecv   uint64
}

// Descriptor returns the peer's self-descriptor (age zero).
func (p *Peer) Descriptor() view.Descriptor {
	return view.Descriptor{ID: p.ID, Addr: p.Addr, Class: p.Advertised}
}

// DropStats counts datagrams that never reached an engine, by cause.
type DropStats struct {
	// NATFiltered datagrams were refused by the destination NAT device.
	NATFiltered uint64
	// NoSuchAddr datagrams targeted an endpoint no live mapping or public
	// peer owns (e.g. an expired mapping).
	NoSuchAddr uint64
	// DeadPeer datagrams reached a departed peer.
	DeadPeer uint64
	// LinkLost datagrams were lost in flight by the link model.
	LinkLost uint64
	// Partitioned datagrams were dropped at a partition cut.
	Partitioned uint64
}

// LinkPolicy perturbs individual datagram transmissions: a scenario's link
// model implements it to add per-datagram latency jitter and probabilistic
// loss. Transmit is consulted once per datagram at send time and returns the
// extra one-way delay in milliseconds (≥ 0) and whether the datagram is lost
// in flight. from identifies the sending peer: implementations must draw all
// randomness from deterministic per-sender streams, because under the
// sharded kernel senders on different shards transmit concurrently — only
// the per-sender call order is deterministic, the interleaving across
// senders is not.
type LinkPolicy interface {
	Transmit(now int64, from ident.NodeID, srcEP, to ident.Endpoint, size uint64) (extraDelayMs int64, drop bool)
}

// slab is chunked stable storage for peer-lifetime objects: chunks never
// move once allocated, so pointers into them stay valid while the backing
// memory is contiguous per chunk and costs one allocation per thousands of
// objects instead of one each. Chunks double in size up to a cap, so small
// unit-test networks stay small and million-peer runs stay at a few dozen
// chunks.
type slab[T any] struct {
	chunks [][]T
	n      int // objects allocated
}

// slabChunk sizing: first chunk, doubling cap.
const (
	slabFirstChunk = 256
	slabMaxChunk   = 65536
)

// alloc returns a pointer to a fresh zero T with a stable address.
func (s *slab[T]) alloc() *T {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		size := slabFirstChunk
		if n > 0 {
			size = 2 * cap(s.chunks[n-1])
			if size > slabMaxChunk {
				size = slabMaxChunk
			}
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
		n++
	}
	s.n++
	c := &s.chunks[n-1]
	*c = append(*c, *new(T))
	return &(*c)[len(*c)-1]
}

// Network is the simulated network. Global state (the roster) is mutated only
// at barriers; everything on the per-datagram path lives in per-shard state,
// so shards run lock-free between barriers.
//
// The roster is the address plan (DESIGN.md §7.1): peers attach one per NAT
// device and each attachment takes the next public IP, so slot i of bySlot
// owns public IP pubIPBase+i — the peer's own if it is public, its NAT box's
// if it is natted — and "who owns this address" is one subtraction and one
// load. byID is the same roster by NodeID. Peers and NAT devices live in slab
// storage (stable addresses, contiguous chunks), so neighbouring peers'
// counters sit on neighbouring cache lines.
type Network struct {
	latency int64

	bySlot   []*Peer // slot (attachment order) → peer; slot i owns pubIPBase+i
	byID     []*Peer // byID[id-1] is peer id; nil where no such peer attached
	peerSlab slab[Peer]
	// devSlab holds one device per natted peer, in attachment order: its
	// length is also the number of private IPs handed out.
	devSlab slab[nat.Device]
	// baseIntern holds every peer's advertised descriptor, interned once at
	// attach time (barrier context). Each shard's engine intern table is
	// layered over it, so the shards' tables hold only learned endpoint
	// variants instead of each re-interning the whole population.
	baseIntern *intern.Descriptors

	shards []netShard

	// policy, when non-nil, perturbs transmissions (jitter, loss). The
	// nil-policy path is the allocation-free fast path.
	policy LinkPolicy
	// partitionOn activates the partition mask: deliveries between peers
	// whose Side differs are dropped at the cut.
	partitionOn bool

	// traces, when non-nil, records every transmission, delivery and drop
	// into per-shard rings (see SetTrace): each shard writes only its own
	// ring, lock-free, and the rings merge back into the global event order
	// by scheduler key. Works at any worker and shard count.
	traces *trace.Sharded

	// counters, when non-nil, mirrors traffic and drop accounting into a
	// metrics registry for the live ops endpoint (see SetObs).
	counters *NetCounters

	// perDatagram disables batched lane delivery: every lane event delivers
	// exactly one datagram, as the pre-batching engine did. The batched and
	// per-datagram paths are bit-identical by construction — LaneContinue
	// only consumes events the scheduler would have dispatched next anyway —
	// and TestBatchedDeliveryInvariance pins that equivalence; the knob
	// exists for that test and for bisecting.
	perDatagram bool
}

// SetPerDatagramDelivery forces one-datagram-per-event delivery dispatch
// (true) or restores batched lane runs (false, the default).
func (n *Network) SetPerDatagramDelivery(v bool) { n.perDatagram = v }

// LeakCheck verifies the wire-message books: every message drawn from the
// shard pools must either have been returned or still be queued for
// delivery (the lane's ring, the held heap, or a staged cross-shard run).
// Messages cross shards — drawn on the sender's pool, returned to the
// destination's — so only the summed balance is meaningful. A surplus means
// a delivery path leaked messages; a deficit means a double release.
func (n *Network) LeakCheck() error {
	var bal, queued int64
	for i := range n.shards {
		sh := &n.shards[i]
		bal += sh.pool.Balance()
		queued += int64(sh.inflight.Len()) + int64(len(sh.jit))
		for _, run := range sh.out {
			queued += int64(len(run))
		}
	}
	if bal != queued {
		return fmt.Errorf("simnet: wire pool balance %d with %d datagrams queued (leaked or double-released messages)", bal, queued)
	}
	return nil
}

// netShard is the per-shard half of the network. Only the shard's events
// (and barrier code) touch it.
type netShard struct {
	idx   int
	sched *sim.Scheduler
	// pool recycles wire messages consumed on this shard.
	pool *wire.Pool
	// shared is the per-shard engine state (descriptor intern table,
	// exchange scratch) handed to every engine of the shard's peers.
	shared *core.Shared

	// Released datagrams wait in a FIFO ring and fire through the shard
	// scheduler's lane in exact key order: delivering allocates nothing and
	// never touches the event heap.
	inflight sim.Ring[delivery]

	// jit holds, inline and by key, the datagrams a link delay carried past
	// the release horizon of the barriers so far (see flush).
	jit jitHeap

	// out stages datagrams sent by this shard's peers, one run per
	// destination shard; the barrier drains them (see flush).
	out [][]jitEntry
	// merge is the barrier's reusable gather-and-sort scratch.
	merge []jitEntry

	// tr is this shard's trace ring (nil when tracing is off — the
	// zero-cost fast path, one nil check per event).
	tr *trace.Ring

	// drops counts dropped datagrams per cause; DropStats and the obs
	// counters are derived from the same trace.DropCauses table.
	drops [trace.NumDropCauses]uint64
}

// trace records one event on the shard's ring, stamped with the scheduler
// key of the event currently executing so per-shard rings merge back into
// the exact global order. No-op (one nil check) when tracing is off.
func (sh *netShard) trace(op trace.Op, from, to ident.Endpoint, msg *wire.Message, size uint64) {
	tr := sh.tr
	if tr == nil {
		return
	}
	actor, seq := sh.sched.CurrentKey()
	tr.Record(trace.Event{
		At:        sh.sched.Now(),
		Actor:     actor,
		Seq:       seq,
		Op:        op,
		Kind:      uint8(msg.Kind),
		Hop:       msg.Hops,
		Src:       msg.Src.ID,
		Dst:       msg.Dst.ID,
		OriginSeq: msg.OriginSeq,
		Path:      msg.PathHash,
		From:      from,
		To:        to,
		Size:      uint32(size),
	})
}

// drop accounts one dropped datagram across all three views of the drop
// taxonomy — the per-cause stats, the obs counter, and the trace — driven
// by the single trace.DropCauses table.
func (n *Network) drop(sh *netShard, cause trace.DropCause, from, to ident.Endpoint, msg *wire.Message, size uint64) {
	sh.drops[cause]++
	if c := n.counters; c != nil {
		c.drops[cause].Inc(sh.idx)
	}
	sh.trace(trace.DropCauses[cause].Op, from, to, msg, size)
}

// jitEntry is one datagram under its delivery key — (arrival time including
// any link delay, sender, per-sender seq), the worker- and shard-count-
// invariant order of the barrier merge. Staged, held and checkpointed
// datagrams all take this form.
type jitEntry struct {
	sim.Key
	d delivery
}

// compareEntry orders datagrams by key, for slices.SortFunc.
func compareEntry(a, b jitEntry) int { return a.Compare(b.Key) }

// jitHeap is a 4-ary min-heap of held datagrams, mirroring the scheduler's
// inline event heap: entries are stored by value and the backing slice is
// reused across pushes, so holding a datagram costs no allocation beyond
// amortized growth.
type jitHeap []jitEntry

func (h *jitHeap) push(e jitEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if e.Compare(s[parent].Key) >= 0 {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *jitHeap) pop() jitEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	s[n] = jitEntry{}
	s = s[:n]
	*h = s
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := first
			last := min(first+4, n)
			for c := first + 1; c < last; c++ {
				if s[c].Compare(s[best].Key) < 0 {
					best = c
				}
			}
			if s[best].Compare(e.Key) >= 0 {
				break
			}
			s[i] = s[best]
			i = best
		}
		s[i] = e
	}
	return top
}

// delivery is one in-flight datagram.
type delivery struct {
	srcEP, to ident.Endpoint
	msg       *wire.Message
	size      uint64
	// jittered marks a datagram the link policy delayed. Delivery ignores
	// it; it is the bit nylon-snap/v1 stores per in-flight datagram.
	jittered bool
}

// bootstrapDst is the well-known endpoint natted peers "contact" at join time
// to allocate their first NAT mapping, standing in for a STUN-style
// introducer.
var bootstrapDst = ident.Endpoint{IP: 0x7f000001, Port: 3478}

// The address plan: 1.0.0.0/8 hosts public peers and NAT boxes, one IP per
// roster slot; 10.0.0.0/8 hosts the private endpoints of natted peers, one IP
// per NAT device. MaxPeers is the population cap: the size of the public
// block, and the highest NodeID a network accepts — IDs index the roster, so
// an attachment must not be able to size it by an ID's magnitude.
const (
	pubIPBase  = 0x01000001
	privIPBase = 0x0a000001
	MaxPeers   = 1 << 24
)

// NewSharded creates an empty network over the sharded kernel, with the
// given one-way latency in milliseconds: one network shard per kernel shard,
// per-shard wire pools, and cross-shard traffic staged in outboxes that
// drain at the kernel's barriers.
func NewSharded(kern *sim.ShardedScheduler, latencyMs int64) *Network {
	if latencyMs < 0 {
		panic("simnet: negative latency")
	}
	n := &Network{
		latency:    latencyMs,
		shards:     make([]netShard, kern.Shards()),
		baseIntern: &intern.Descriptors{},
	}
	for i := range n.shards {
		sh := &n.shards[i]
		sh.idx = i
		sh.sched = kern.Shard(i)
		sh.shared = core.NewShared()
		sh.shared.Intern = intern.NewLayered(n.baseIntern)
		sh.pool = &wire.Pool{}
		sh.out = make([][]jitEntry, len(n.shards))
		i := i
		sh.sched.SetLaneFn(func() { n.deliverNext(i) })
	}
	kern.SetBarrierFn(n.flush)
	return n
}

// ShardOf returns the shard index owning the given peer ID. The mapping is
// a pure function of (ID, shard count), so consecutive IDs spread
// round-robin and population growth stays balanced.
func (n *Network) ShardOf(id ident.NodeID) int {
	return int(uint64(id-1) % uint64(len(n.shards)))
}

// ShardPool returns shard i's wire message pool. Engines built for a shard's
// peers must allocate from it.
func (n *Network) ShardPool(i int) *wire.Pool { return n.shards[i].pool }

// ShardShared returns shard i's shared engine state (descriptor intern
// table, exchange scratch). Engines built for a shard's peers should use it:
// all of a shard's engine calls are serialized, which is exactly the sharing
// contract of core.Shared.
func (n *Network) ShardShared(i int) *core.Shared { return n.shards[i].shared }

// Drops returns the datagram drop counters aggregated across shards. The
// DropStats fields are populated from the trace.DropCauses table (the
// single source of the drop taxonomy); TestDropStatFields pins that every
// table entry names a real field.
func (n *Network) Drops() DropStats {
	causes := n.DropTotals()
	var d DropStats
	v := reflect.ValueOf(&d).Elem()
	for c := range trace.DropCauses {
		v.FieldByName(trace.DropCauses[c].StatField).SetUint(causes[c])
	}
	return d
}

// DropTotals returns the per-cause drop counters aggregated across shards,
// indexed by trace.DropCause. Call at setup or barrier context.
func (n *Network) DropTotals() [trace.NumDropCauses]uint64 {
	var causes [trace.NumDropCauses]uint64
	for i := range n.shards {
		for c, v := range n.shards[i].drops {
			causes[c] += v
		}
	}
	return causes
}

// SetTrace installs (or, with nil, removes) the sharded trace recorder,
// which must be sized for the network's shard count. Call at setup or
// barrier context. Recording costs one nil check per event when installed
// rings are absent; every barrier additionally serves at most one pending
// live tap (see trace.Sharded.RequestTail).
func (n *Network) SetTrace(ts *trace.Sharded) {
	if ts != nil && ts.Shards() != len(n.shards) {
		panic("simnet: SetTrace with a recorder sized for a different shard count")
	}
	n.traces = ts
	for i := range n.shards {
		n.shards[i].tr = ts.Shard(i)
	}
}

// Trace returns the installed sharded trace recorder, or nil.
func (n *Network) Trace() *trace.Sharded { return n.traces }

// SetLinkPolicy installs (or, with nil, removes) the transmission
// perturbation policy. With no policy every datagram arrives exactly one
// latency after its send.
func (n *Network) SetLinkPolicy(p LinkPolicy) { n.policy = p }

// SetPartitionActive toggles the partition mask. Callers assign peers'
// Side fields before activating; healing deactivates the mask (sides may be
// left as-is, they are ignored while inactive).
func (n *Network) SetPartitionActive(active bool) { n.partitionOn = active }

// PartitionActive reports whether a partition is in force.
func (n *Network) PartitionActive() bool { return n.partitionOn }

// barrierNow returns the current virtual time for barrier-context and setup
// code (all shard clocks agree there).
func (n *Network) barrierNow() int64 { return n.shards[0].sched.Now() }

// EngineFactory builds a peer's engine once the network has assigned its
// descriptor.
type EngineFactory func(self view.Descriptor) core.Engine

// AddPeer attaches a new peer of the given NAT class. For natted classes a
// dedicated NAT device is created (one peer per NAT, as in the paper) and the
// peer's advertised endpoint is the mapping allocated by a join-time
// handshake with the bootstrap introducer. ruleTTL is the NAT rule lifetime
// in milliseconds (ignored for public peers). Peers may only be added at
// barriers (or before the run starts).
func (n *Network) AddPeer(id ident.NodeID, class ident.NATClass, ruleTTL int64, f EngineFactory) *Peer {
	p, pubIP := n.newPeer(id, class)
	if class == ident.Public {
		p.Priv = ident.Endpoint{IP: pubIP, Port: 9000}
		p.Addr = p.Priv
	} else {
		n.attachNAT(p, pubIP, ruleTTL)
		// Join handshake: allocate the advertised mapping.
		p.Addr = p.Device.Outbound(n.barrierNow(), p.Priv, bootstrapDst)
	}
	n.baseIntern.Intern(p.Descriptor())
	p.Engine = f(p.Descriptor())
	return p
}

// attachNAT puts p behind a NAT device of its own, which takes the slot's
// public IP; the peer takes the next private IP.
func (n *Network) attachNAT(p *Peer, pubIP ident.IP, ruleTTL int64) {
	p.Priv = ident.Endpoint{IP: ident.IP(privIPBase + uint32(n.devSlab.n)), Port: 9000}
	p.Device = n.devSlab.alloc()
	*p.Device = nat.MakeDevice(p.Class, pubIP, ruleTTL)
}

// newPeer allocates a peer in the slab and appends it to the roster, by slot
// and by ID. pubIP is the public IP the new slot owns.
func (n *Network) newPeer(id ident.NodeID, class ident.NATClass) (p *Peer, pubIP ident.IP) {
	if id.IsNil() || id > MaxPeers {
		panic(fmt.Sprintf("simnet: peer id %v outside 1..%d", id, MaxPeers))
	}
	if n.Peer(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate peer %v", id))
	}
	p = n.peerSlab.alloc()
	*p = Peer{ID: id, Class: class, Advertised: class, Alive: true, Shard: n.ShardOf(id)}
	pubIP = ident.IP(pubIPBase + uint32(len(n.bySlot)))
	n.bySlot = append(n.bySlot, p)
	for len(n.byID) < int(id) {
		n.byID = append(n.byID, nil)
	}
	n.byID[id-1] = p
	return p, pubIP
}

// AddPeerUPnP attaches a natted peer whose NAT device honours an explicit
// port-mapping protocol (NAT-PMP / UPnP IGD, discussed in the paper's
// related work): the advertised endpoint is a permanent pinhole that accepts
// unsolicited traffic, so the peer advertises itself as Public even though
// its outbound traffic still traverses the device.
func (n *Network) AddPeerUPnP(id ident.NodeID, class ident.NATClass, ruleTTL int64, f EngineFactory) *Peer {
	if !class.Natted() {
		panic("simnet: AddPeerUPnP requires a natted class")
	}
	p, pubIP := n.newPeer(id, class)
	p.Advertised = ident.Public
	n.attachNAT(p, pubIP, ruleTTL)
	p.Addr = p.Device.Pinhole(p.Priv)
	n.baseIntern.Intern(p.Descriptor())
	p.Engine = f(p.Descriptor())
	return p
}

// Peer returns the peer with the given ID, or nil.
func (n *Network) Peer(id ident.NodeID) *Peer {
	if i := uint64(id) - 1; i < uint64(len(n.byID)) {
		return n.byID[i]
	}
	return nil
}

// Peers returns the roster by NodeID: element i is peer i+1, nil where no
// peer of that ID has attached. An attachment (barrier context) may replace
// the slice; callers read it and do not keep it across one.
func (n *Network) Peers() []*Peer { return n.byID }

// PeerCount returns the number of peers ever attached.
func (n *Network) PeerCount() int { return len(n.bySlot) }

// InstallHole simulates a completed join-time handshake between a and b:
// both NAT devices (if any) get filtering rules admitting the other side,
// as if each had sent the other one datagram through an introducer. The
// experiment runners use it to realize the paper's bootstrap, in which
// initial views are usable. Barrier-context only: it touches both peers'
// devices.
func (n *Network) InstallHole(a, b *Peer) {
	now := n.barrierNow()
	if a.Device != nil {
		a.Device.Outbound(now, a.Priv, b.Addr)
	}
	if b.Device != nil {
		b.Device.Outbound(now, b.Priv, a.Addr)
	}
}

// Kill marks the peer as departed: it stops ticking (the runner checks
// Alive) and every datagram addressed to it is dropped. Its NAT device state
// remains, as a real abandoned NAT box's would. Barrier-context only.
func (n *Network) Kill(id ident.NodeID) {
	if p := n.Peer(id); p != nil {
		p.Alive = false
	}
}

// Send transmits one engine command from the given peer: the datagram leaves
// through the peer's NAT device (allocating/refreshing the mapping) and is
// delivered — or dropped — one latency later. The network takes ownership of
// the message and recycles it into the consuming shard's pool once consumed.
// Send runs in the sending peer's shard context.
func (n *Network) Send(from *Peer, s core.Send) {
	sh := &n.shards[from.Shard]
	if !from.Alive {
		sh.pool.Put(s.Msg)
		return
	}
	size := uint64(s.Msg.Size())
	from.BytesSent += size
	from.MsgsSent++
	if c := n.counters; c != nil {
		c.Sent.Inc(from.Shard)
		c.BytesSent.Add(from.Shard, size)
	}

	// Causal stamp (see internal/trace): a hop-0 send opens a fresh chain
	// numbered by the origin's private counter; a relayed send folds the
	// relay into the path hash. Stamps live in in-memory message fields the
	// protocol never reads and are maintained unconditionally, so traced
	// and untraced runs execute identically.
	if s.Msg.Hops == 0 {
		from.StampSeq++
		s.Msg.OriginSeq = from.StampSeq
		s.Msg.PathHash = trace.PathRoot(from.ID, from.StampSeq)
	} else {
		s.Msg.PathHash = trace.PathExtend(s.Msg.PathHash, from.ID)
	}

	now := sh.sched.Now()
	srcEP := from.Priv
	if from.Device != nil {
		srcEP = from.Device.Outbound(now, from.Priv, s.To)
	}
	sh.trace(trace.OpSend, srcEP, s.To, s.Msg, size)
	var extra int64
	if n.policy != nil {
		var dropped bool
		extra, dropped = n.policy.Transmit(now, from.ID, srcEP, s.To, size)
		if dropped {
			// In-flight loss, accounted at send time: the sender paid
			// the bytes, nobody receives them.
			n.drop(sh, trace.DropLink, srcEP, s.To, s.Msg, size)
			sh.pool.Put(s.Msg)
			return
		}
	}
	at := now + n.latency + extra

	// Stage into the destination shard's mailbox; the barrier merges and
	// schedules it. The destination shard is the endpoint owner's —
	// ownership never changes once an IP is allocated, so resolving the
	// shard at send time is safe (NAT admission still happens at delivery
	// time, on the owning shard).
	from.Seq++
	owner, ok := n.OwnerOfIP(s.To.IP)
	if !ok {
		// No owner now means none ever: IPs are allocated once and never
		// reassigned. Account the drop at send time.
		n.drop(sh, trace.DropAddr, srcEP, s.To, s.Msg, size)
		sh.pool.Put(s.Msg)
		return
	}
	k := sim.Key{At: at, Actor: uint64(from.ID), Seq: from.Seq}
	d := delivery{srcEP: srcEP, to: s.To, msg: s.Msg, size: size, jittered: extra > 0}
	sh.out[owner.Shard] = append(sh.out[owner.Shard], jitEntry{Key: k, d: d})
}

// flush is the kernel's barrier hook. At barrier T it gives each shard's lane,
// in (arrival, sender, per-sender seq) order, every staged or held datagram
// due before T+latency, and holds the rest in the shard's jit heap until the
// barrier whose window they fall in. That is sound because a datagram sent at
// s arrives no earlier than s+latency and every later send happens at or
// after T: by now everything due before T+latency has been sent. Successive
// barriers therefore release disjoint, increasing key ranges, and the lane
// stays monotone. Only a link delay (or a send at exactly a barrier time) can
// carry a datagram past the horizon.
//
// Each source run is key-sorted unless a link delay regressed it — virtual
// time advances monotonically within a window and same-instant events execute
// in (actor, seq) order, which is also the order staged sends draw their keys.
// A destination fed by one sorted run and holding nothing due schedules the
// run in place; anything else is gathered and sorted by key.
func (n *Network) flush() {
	// Barrier context: no shard worker is running, so this is the one safe
	// place to serve a live trace read posted by another goroutine.
	n.traces.ServeTap()
	horizon := n.barrierNow() + n.latency
	for di := range n.shards {
		dst := &n.shards[di]
		var run []jitEntry // what dst releases or holds
		runs := 0
		for si := range n.shards {
			if out := n.shards[si].out[di]; len(out) > 0 {
				runs++
				run = out
			}
		}
		due := len(dst.jit) > 0 && dst.jit[0].At < horizon
		if runs == 0 && !due {
			continue
		}
		if runs > 1 || due || !slices.IsSortedFunc(run, compareEntry) {
			run = dst.merge[:0]
			for si := range n.shards {
				run = append(run, n.shards[si].out[di]...)
			}
			for len(dst.jit) > 0 && dst.jit[0].At < horizon {
				run = append(run, dst.jit.pop())
			}
			slices.SortFunc(run, compareEntry)
			dst.merge = run
		}
		for i := range run {
			if e := &run[i]; e.At < horizon {
				dst.inflight.Push(e.d)
				dst.sched.LaneAtKey(e.At, e.Actor, e.Seq)
			} else {
				dst.jit.push(*e)
			}
		}
		// Drop message references from the scratch and the outboxes so
		// stale slots never alias live pool entries.
		clear(dst.merge)
		dst.merge = dst.merge[:0]
		for si := range n.shards {
			src := &n.shards[si]
			clear(src.out[di])
			src.out[di] = src.out[di][:0]
		}
	}
}

// deliverNext completes shard i's oldest in-flight datagrams: lane events
// fire in exact key order, which is the order the ring was filled, so the
// queue head is always the datagram the event belongs to. After each
// delivery the loop asks the scheduler to extend the run (LaneContinue):
// back-to-back lane events — the overwhelming majority — are handled as one
// batch event, amortizing dispatch, while every
// datagram still advances the clock and the processed count individually and
// any interleaved heap event ends the batch exactly where per-datagram
// execution would have run it.
func (n *Network) deliverNext(i int) {
	sh := &n.shards[i]
	for {
		d := sh.inflight.Pop()
		n.deliver(i, d.srcEP, d.to, d.msg, d.size)
		sh.pool.Put(d.msg)
		if n.perDatagram || !sh.sched.LaneContinue() {
			return
		}
	}
}

// deliver completes one datagram on shard si (the destination's shard).
func (n *Network) deliver(si int, srcEP, to ident.Endpoint, msg *wire.Message, size uint64) {
	sh := &n.shards[si]
	now := sh.sched.Now()
	target, ok := n.resolve(sh, now, srcEP, to, msg, size)
	if !ok {
		return
	}
	if n.partitionOn {
		// The cut is evaluated at delivery time: datagrams in flight when
		// the partition strikes are swallowed by it too.
		if src, ok := n.OwnerOfIP(srcEP.IP); ok && src.Side != target.Side {
			n.drop(sh, trace.DropPartition, srcEP, to, msg, size)
			return
		}
	}
	if !target.Alive {
		n.drop(sh, trace.DropDead, srcEP, to, msg, size)
		return
	}
	target.BytesRecv += size
	target.MsgsRecv++
	if c := n.counters; c != nil {
		c.Delivered.Inc(sh.idx)
	}
	sh.trace(trace.OpDeliver, srcEP, to, msg, size)
	outs := target.Engine.Receive(now, srcEP, msg)
	for _, out := range outs {
		n.Send(target, out)
	}
}

// resolve finds the owner of a destination endpoint — the peer in the slot of
// the endpoint's IP — applying NAT admission if it is natted. It updates the
// shard's drop statistics and the trace on failure.
func (n *Network) resolve(sh *netShard, now int64, srcEP, to ident.Endpoint, msg *wire.Message, size uint64) (*Peer, bool) {
	p, ok := n.OwnerOfIP(to.IP)
	if !ok || p.Device == nil {
		if ok && p.Addr == to {
			return p, true
		}
		n.drop(sh, trace.DropAddr, srcEP, to, msg, size)
		return nil, false
	}
	priv, ok := p.Device.Inbound(now, srcEP, to)
	if !ok {
		n.drop(sh, trace.DropNAT, srcEP, to, msg, size)
		return nil, false
	}
	if priv != p.Priv {
		n.drop(sh, trace.DropAddr, srcEP, to, msg, size)
		return nil, false
	}
	return p, true
}

// Reachable reports whether a datagram sent now by q to the descriptor d
// would be admitted by d's NAT (or d is public). It never mutates NAT state:
// it is the paper's "stale reference" test (a reference is stale when
// communication with it is impossible). Barrier-context only: it reads both
// peers' devices.
func (n *Network) Reachable(now int64, q *Peer, d view.Descriptor) bool {
	return !d.Class.Natted() || n.wouldAdmit(now, q, d.Addr)
}

// ReachableEndpoint is Reachable for a raw endpoint (e.g. a learned,
// hole-punched mapping rather than an advertised one): it reports whether a
// datagram sent now by q to addr would reach a live mapping or public peer.
func (n *Network) ReachableEndpoint(now int64, q *Peer, addr ident.Endpoint) bool {
	if p, ok := n.OwnerOfIP(addr.IP); ok && p.Device == nil {
		return p.Addr == addr
	}
	return n.wouldAdmit(now, q, addr)
}

// wouldAdmit reports whether the NAT device owning addr's IP would admit a
// datagram sent now by q to addr.
func (n *Network) wouldAdmit(now int64, q *Peer, addr ident.Endpoint) bool {
	p, ok := n.OwnerOfIP(addr.IP)
	if !ok || p.Device == nil {
		return false
	}
	src, ok := n.wouldSendFrom(now, q, addr)
	if !ok {
		// q would allocate a fresh, unpredictable mapping; only
		// IP-level filters can match it. Model it as port 0, which no
		// installed port-specific rule equals.
		src = ident.Endpoint{IP: n.publicIPOf(q)}
	}
	return p.Device.WouldAdmit(now, src, addr)
}

// wouldSendFrom returns the source endpoint q's next datagram toward dst
// would carry, if that can be predicted from live state.
func (n *Network) wouldSendFrom(now int64, q *Peer, dst ident.Endpoint) (ident.Endpoint, bool) {
	if q.Device == nil {
		return q.Priv, true
	}
	return q.Device.PublicMapping(now, q.Priv, dst)
}

func (n *Network) publicIPOf(q *Peer) ident.IP {
	if q.Device != nil {
		return q.Device.PublicIP()
	}
	return q.Priv.IP
}

// OwnerOfIP returns the peer owning the given public IP (either directly or
// through its NAT device): the roster slot the address plan gave the IP to.
func (n *Network) OwnerOfIP(ip ident.IP) (*Peer, bool) {
	i := uint32(ip) - pubIPBase
	if i >= uint32(len(n.bySlot)) {
		return nil, false
	}
	return n.bySlot[i], true
}
