package simnet

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// This file implements checkpoint capture and restore for the simulated
// network. Capture runs at a kernel barrier (see sim.ShardedScheduler's
// checkpoint hook): every shard event at or before the barrier time has
// executed and the cross-shard staging outboxes are drained, so the whole
// in-flight state of the network is exactly the shards' delivery lanes and
// held lists.
//
// The encoding is shard-count-invariant — the same world state serializes to
// the same bytes whether the writing run used 1 shard or 16 — because
// everything shard-scoped is merged into a global canonical order before
// encoding: peers serialize in attachment (slot) order, which is a pure
// function of the run; in-flight datagrams merge across shards sorted by
// their (arrival, sender, per-sender seq) key; drop counters serialize as
// per-cause totals. On restore the state redistributes to however many
// shards the resuming run uses: every in-flight datagram goes into the held
// list of its destination's shard, in the key order the decoder checks, and
// the resumed run's first barrier releases into the lanes exactly what the
// capturing run's lanes held.
//
// Deliberately not serialized: per-shard intern tables and resolve memos
// (performance caches re-derived on demand), trace rings and flight
// recorders (forensic state; a resumed run's trace starts at the resume
// point), and observability counters (live-ops surface, not simulation
// state). The snapshot/resume invariance test pins that none of these
// omissions is observable in results.

// Section tags of the network payload.
const (
	secNet  = "net!"
	secMsgs = "msg!"
	secDrop = "drp!"
)

// EachPeer visits every peer ever attached, in attachment order. The host
// uses it to serialize engine state in an order both sides of a checkpoint
// agree on.
func (n *Network) EachPeer(fn func(p *Peer)) {
	for _, p := range n.bySlot {
		fn(p)
	}
}

// State walks the network's complete state: the next free public and private
// IP (both functions of the roster, kept for the format), the partition flag,
// every peer (with its NAT device and traffic counters) in
// attachment order, every in-flight datagram in key order, and the drop
// totals. Capture must run at a barrier.
//
// Restoring rebuilds the state into this freshly constructed, empty network,
// whose shard clocks already stand at the barrier time the run resumes at.
// engineFor — the one argument a capture does not use — is called once per
// restored peer, in attachment order, to build its engine (the host restores
// engine state afterwards via EachPeer in the same order). On corrupt input
// the codec's sticky error is set and the network must be discarded — the
// caller checks the error before letting the world run.
func (n *Network) State(c *snapshot.Codec, engineFor func(p *Peer) core.Engine) {
	if c.Restoring() && len(n.bySlot) != 0 {
		panic("simnet: restore into a non-empty network")
	}
	c.Section(secNet)
	nextPub := c.U32(pubIPBase + uint32(len(n.bySlot)))
	nextPriv := c.U32(privIPBase + uint32(n.devSlab.n))
	n.partitionOn = c.Bool(n.partitionOn)
	nPeers := c.Count(len(n.bySlot), 8+2+6+6+2+8+4+4*8)
	if nPeers > MaxPeers {
		c.Fail("%d peers exceed the population cap %d", nPeers, MaxPeers)
	}
	for i := 0; i < nPeers && c.Err() == nil; i++ {
		n.peerState(c, i, nPeers, engineFor)
	}
	if c.Err() != nil {
		return
	}
	if nextPub != pubIPBase+uint32(len(n.bySlot)) || nextPriv != privIPBase+uint32(n.devSlab.n) {
		c.Fail("address allocators disagree with the roster (%d peers, %d natted)", len(n.bySlot), n.devSlab.n)
		return
	}

	c.Section(secMsgs)
	var flight []jitEntry
	if !c.Restoring() {
		for i := range n.shards {
			sh := &n.shards[i]
			// Lane events fire in exact ring order: pair the scheduler's lane
			// keys with the ring's deliveries positionally.
			j := 0
			sh.sched.EachLane(func(k sim.Key) {
				flight = append(flight, jitEntry{Key: k, d: *sh.inflight.At(j)})
				j++
			})
			if j != sh.inflight.Len() {
				panic("simnet: lane events and in-flight ring out of step")
			}
			flight = append(flight, sh.held...)
		}
		slices.SortFunc(flight, compareEntry)
	}
	nMsgs := c.Count(len(flight), 8+8+8+1+6+6+2+3*19+4+8+4)
	var fresh jitEntry // restoring, every datagram decodes into it, whole
	var prev sim.Key
	for i := 0; i < nMsgs && c.Err() == nil; i++ {
		e := &fresh
		if !c.Restoring() {
			e = &flight[i]
		}
		n.datagramState(c, i, e, prev)
		prev = e.Key
	}

	c.Section(secDrop)
	for cause, v := range n.DropTotals() {
		// Totals restore into shard 0; every read aggregates across shards.
		if v = c.U64(v); c.Restoring() {
			n.shards[0].drops[cause] = v
		}
	}
}

// peerState walks record i of a roster of nPeers: identity, addresses, life,
// event and traffic counters, and the NAT device of a natted peer. Restoring
// attaches the peer it describes and builds its engine.
func (n *Network) peerState(c *snapshot.Codec, i, nPeers int, engineFor func(p *Peer) core.Engine) {
	var p *Peer
	var pubIP ident.IP
	var id ident.NodeID
	var class ident.NATClass
	if !c.Restoring() {
		p = n.bySlot[i]
		id, class = p.ID, p.Class
	}
	id = ident.NodeID(c.U64(uint64(id)))
	class = ident.NATClass(c.U8(uint8(class)))
	if c.Restoring() {
		if c.Err() != nil {
			return
		}
		if id.IsNil() || !class.Valid() {
			c.Fail("peer %d with id %v class %d", i, id, class)
			return
		}
		// IDs of a valid snapshot form a permutation of 1..nPeers (peers are
		// numbered densely at creation; only the attachment order varies), so
		// anything out of range or repeated is hostile — and the range check
		// also bounds what the ID-indexed roster (and the host's per-ID
		// arrays) will allocate.
		if uint64(id) > uint64(nPeers) {
			c.Fail("peer id %v exceeds the %d-peer roster", id, nPeers)
			return
		}
		if n.Peer(id) != nil {
			c.Fail("duplicate peer %v", id)
			return
		}
		p, pubIP = n.newPeer(id, class)
	}
	p.Advertised = ident.NATClass(c.U8(uint8(p.Advertised)))
	p.Priv = c.Endpoint(p.Priv)
	p.Addr = c.Endpoint(p.Addr)
	p.Alive = c.Bool(p.Alive)
	p.Side = c.U8(p.Side)
	p.Seq = c.U64(p.Seq)
	p.StampSeq = c.U32(p.StampSeq)
	p.BytesSent = c.U64(p.BytesSent)
	p.BytesRecv = c.U64(p.BytesRecv)
	p.MsgsSent = c.U64(p.MsgsSent)
	p.MsgsRecv = c.U64(p.MsgsRecv)
	if class.Natted() {
		if c.Restoring() {
			p.Device = n.devSlab.alloc()
		}
		p.Device.State(c)
	}
	if !c.Restoring() || c.Err() != nil {
		return
	}
	// The roster is the address plan — slot i owns public IP pubIPBase+i, the
	// k-th device's peer private IP privIPBase+k — so the serialized addresses
	// must reproduce it exactly or lookups would misroute.
	if class.Natted() {
		if p.Device.PublicIP() != pubIP ||
			uint32(p.Priv.IP) != privIPBase+uint32(n.devSlab.n-1) ||
			p.Device.Class() != class {
			c.Fail("peer %v breaks dense address allocation", id)
			return
		}
	} else if p.Priv.IP != pubIP || p.Addr != p.Priv {
		c.Fail("public peer %v breaks dense address allocation", id)
		return
	}
	n.baseIntern.Intern(p.Descriptor())
	p.Engine = engineFor(p)
}

// datagramState walks in-flight datagram i: its key, its endpoints and its
// message. Restoring draws the message from the pool of the shard that owns
// the destination and holds the datagram there; prev is the key of datagram
// i-1.
func (n *Network) datagramState(c *snapshot.Codec, i int, e *jitEntry, prev sim.Key) {
	e.At = c.I64(e.At)
	e.Actor = c.U64(e.Actor)
	e.Seq = c.U64(e.Seq)
	e.d.jittered = c.Bool(e.d.jittered)
	e.d.srcEP = c.Endpoint(e.d.srcEP)
	e.d.to = c.Endpoint(e.d.to)
	var sh *netShard
	if c.Restoring() {
		if c.Err() != nil {
			return
		}
		// The writer's keys strictly increase from the barrier time on. The
		// first barrier hands them to lanes that panic (a host-bug detector)
		// on a key that regresses, as one before the clock does once clamped
		// to it: hostile input must fail the restore, not trip the detector.
		if (i > 0 && prev.Compare(e.Key) >= 0) || e.At < n.barrierNow() {
			c.Fail("in-flight datagram %d out of key order or due before the barrier", i)
			return
		}
		owner, ok := n.OwnerOfIP(e.d.to.IP)
		if !ok {
			c.Fail("in-flight datagram to %v, an endpoint nobody owns", e.d.to)
			return
		}
		sh = &n.shards[owner.Shard]
		e.d.msg = sh.pool.Get()
	}
	m := e.d.msg
	m.Kind = wire.Kind(c.U8(uint8(m.Kind)))
	m.Hops = c.U8(m.Hops)
	m.Src = c.Desc(m.Src)
	m.Dst = c.Desc(m.Dst)
	m.Via = c.Desc(m.Via)
	m.OriginSeq = c.U32(m.OriginSeq)
	m.PathHash = c.U64(m.PathHash)
	nEntries := c.Count(len(m.Entries), 19+4)
	if c.Restoring() {
		m.Entries = slices.Grow(m.Entries[:0], nEntries)[:nEntries]
	}
	for j := range m.Entries {
		m.Entries[j].Desc = c.Desc(m.Entries[j].Desc)
		m.Entries[j].RouteTTL = c.U32(m.Entries[j].RouteTTL)
	}
	if !c.Restoring() {
		return
	}
	if c.Err() != nil {
		sh.pool.Put(m)
		return
	}
	e.d.size = uint64(m.Size())
	sh.held = append(sh.held, *e)
}
