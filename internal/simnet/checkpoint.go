package simnet

import (
	"slices"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/nat"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/wire"
)

// This file implements checkpoint capture and restore for the simulated
// network. Capture runs at a kernel barrier (see sim.ShardedScheduler's
// checkpoint hook): every shard event at or before the barrier time has
// executed and the cross-shard staging outboxes are drained, so the whole
// in-flight state of the network is exactly the shards' delivery lanes and
// jit heaps.
//
// The encoding is shard-count-invariant — the same world state serializes to
// the same bytes whether the writing run used 1 shard or 16 — because
// everything shard-scoped is merged into a global canonical order before
// encoding: peers serialize in attachment (slot) order, which is a pure
// function of the run; in-flight datagrams merge across shards sorted by
// their (arrival, sender, per-sender seq) scheduler key; drop counters
// serialize as per-cause totals. On restore the state redistributes to
// however many shards the resuming run uses: each shard's sub-sequence of
// the globally key-sorted datagram list is itself key-sorted, so lane
// monotonicity holds whatever the new shard count.
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

// SnapshotTo serializes the network's complete state: address allocators,
// the partition flag, every peer (with its NAT device and traffic counters)
// in attachment order, every in-flight datagram in scheduler-key order, and
// the drop totals. Capture must run at a barrier.
func (n *Network) SnapshotTo(enc *snapshot.Encoder) {
	enc.Section(secNet)
	enc.U32(n.nextPublicIP)
	enc.U32(n.nextPrivateIP)
	enc.Bool(n.partitionOn)
	enc.U32(uint32(len(n.bySlot)))
	for _, p := range n.bySlot {
		enc.U64(uint64(p.ID))
		enc.U8(uint8(p.Class))
		enc.U8(uint8(p.Advertised))
		enc.Endpoint(p.Priv)
		enc.Endpoint(p.Addr)
		enc.Bool(p.Alive)
		enc.U8(p.Side)
		enc.U64(p.Seq)
		enc.U32(p.StampSeq)
		enc.U64(p.BytesSent)
		enc.U64(p.BytesRecv)
		enc.U64(p.MsgsSent)
		enc.U64(p.MsgsRecv)
		if p.Device != nil {
			p.Device.SnapshotTo(enc)
		}
	}

	enc.Section(secMsgs)
	var flight []outEntry
	for i := range n.shards {
		sh := &n.shards[i]
		// Lane events fire in exact ring order: pair the scheduler's lane
		// keys with the ring's deliveries positionally.
		j := 0
		sh.sched.EachLane(func(k sim.Key) {
			flight = append(flight, outEntry{Key: k, d: *sh.inflight.At(j)})
			j++
		})
		if j != sh.inflight.Len() {
			panic("simnet: lane events and in-flight ring out of step")
		}
		for _, e := range sh.jit {
			flight = append(flight, outEntry{Key: e.Key, jittered: true, d: e.d})
		}
	}
	slices.SortFunc(flight, compareOut)
	enc.U32(uint32(len(flight)))
	for i := range flight {
		e := &flight[i]
		enc.I64(e.At)
		enc.U64(e.Actor)
		enc.U64(e.Seq)
		enc.Bool(e.jittered)
		enc.Endpoint(e.d.srcEP)
		enc.Endpoint(e.d.to)
		m := e.d.msg
		enc.U8(uint8(m.Kind))
		enc.U8(m.Hops)
		enc.Desc(m.Src)
		enc.Desc(m.Dst)
		enc.Desc(m.Via)
		enc.U32(m.OriginSeq)
		enc.U64(m.PathHash)
		enc.U32(uint32(len(m.Entries)))
		for _, ve := range m.Entries {
			enc.Desc(ve.Desc)
			enc.U32(ve.RouteTTL)
		}
	}

	enc.Section(secDrop)
	totals := n.DropTotals()
	for _, v := range totals {
		enc.U64(v)
	}
}

// RestoreFrom rebuilds the state captured by SnapshotTo into this freshly
// constructed, empty network. engineFor is called once per restored
// peer, in attachment order, to build its engine (the host restores engine
// state afterwards via EachPeer in the same order). On corrupt input the
// decoder's sticky error is set and the network must be discarded — the
// caller checks the error before letting the world run.
func (n *Network) RestoreFrom(dec *snapshot.Decoder, engineFor func(p *Peer) core.Engine) {
	if len(n.bySlot) != 0 {
		panic("simnet: RestoreFrom on a non-empty network")
	}
	dec.Section(secNet)
	nextPublicIP := dec.U32()
	nextPrivateIP := dec.U32()
	n.partitionOn = dec.Bool()
	nPeers := dec.Count(8 + 2 + 6 + 6 + 2 + 8 + 4 + 4*8)
	for i := 0; i < nPeers; i++ {
		id := ident.NodeID(dec.U64())
		class := ident.NATClass(dec.U8())
		advertised := ident.NATClass(dec.U8())
		priv := dec.Endpoint()
		addr := dec.Endpoint()
		alive := dec.Bool()
		side := dec.U8()
		seq := dec.U64()
		stampSeq := dec.U32()
		bytesSent, bytesRecv := dec.U64(), dec.U64()
		msgsSent, msgsRecv := dec.U64(), dec.U64()
		if dec.Err() != nil {
			return
		}
		if id.IsNil() || !class.Valid() {
			dec.Fail("peer %d with id %v class %d", i, id, class)
			return
		}
		// IDs of a valid snapshot form a permutation of 1..nPeers (peers are
		// numbered densely at creation; only the attachment order varies), so
		// anything out of range or repeated is hostile — and the range check
		// also bounds what the host's ID-indexed rosters will allocate.
		if uint64(id) > uint64(nPeers) {
			dec.Fail("peer id %v exceeds the %d-peer roster", id, nPeers)
			return
		}
		if n.Peer(id) != nil {
			dec.Fail("duplicate peer %v", id)
			return
		}
		p := n.newPeer(id, class)
		p.Advertised = advertised
		p.Priv, p.Addr = priv, addr
		p.Alive, p.Side = alive, side
		p.Seq, p.StampSeq = seq, stampSeq
		p.BytesSent, p.BytesRecv = bytesSent, bytesRecv
		p.MsgsSent, p.MsgsRecv = msgsSent, msgsRecv
		if class.Natted() {
			dev := nat.RestoreDevice(dec)
			if dec.Err() != nil {
				return
			}
			// The endpoint resolution arrays are dense by construction —
			// pubs[i] owns IP pubIPBase+i — so the serialized allocation
			// order must reproduce it exactly or lookups would misroute.
			if uint32(dev.PublicIP()) != pubIPBase+uint32(len(n.pubs)) ||
				uint32(priv.IP) != privIPBase+uint32(len(n.privs)) ||
				dev.Class() != class {
				dec.Fail("peer %v breaks dense address allocation", id)
				return
			}
			d := n.devSlab.alloc()
			*d = dev
			p.Device = d
			n.pubs = append(n.pubs, pubSlot{dev: d, owner: p})
			n.privs = append(n.privs, p)
		} else {
			if uint32(priv.IP) != pubIPBase+uint32(len(n.pubs)) || addr != priv {
				dec.Fail("public peer %v breaks dense address allocation", id)
				return
			}
			n.pubs = append(n.pubs, pubSlot{peer: p})
		}
		n.baseIntern.Intern(p.Descriptor())
		p.Engine = engineFor(p)
	}
	if uint32(len(n.pubs)) != nextPublicIP-pubIPBase || uint32(len(n.privs)) != nextPrivateIP-privIPBase {
		dec.Fail("address allocators disagree with the roster (%d pubs, %d privs)", len(n.pubs), len(n.privs))
		return
	}
	n.nextPublicIP, n.nextPrivateIP = nextPublicIP, nextPrivateIP

	dec.Section(secMsgs)
	nMsgs := dec.Count(8 + 8 + 8 + 1 + 6 + 6 + 2 + 3*19 + 4 + 8 + 4)
	var prev sim.Key
	for i := 0; i < nMsgs; i++ {
		k := sim.Key{At: dec.I64(), Actor: dec.U64(), Seq: dec.U64()}
		jittered := dec.Bool()
		// The writer sorts entries by strictly increasing key; enforce that
		// before any shard-lane push, because a lane rejects (by design, with
		// a panic — it is a host-bug detector) keys that regress. Hostile
		// input must fail the decode, not trip the detector.
		if i > 0 && prev.Compare(k) >= 0 {
			dec.Fail("in-flight datagram %d out of key order", i)
			return
		}
		prev = k
		srcEP, to := dec.Endpoint(), dec.Endpoint()
		kind := wire.Kind(dec.U8())
		hops := dec.U8()
		src, dst, via := dec.Desc(), dec.Desc(), dec.Desc()
		originSeq := dec.U32()
		pathHash := dec.U64()
		nEntries := dec.Count(19 + 4)
		if dec.Err() != nil {
			return
		}
		owner, ok := n.OwnerOfIP(to.IP)
		if !ok {
			dec.Fail("in-flight datagram to %v, an endpoint nobody owns", to)
			return
		}
		sh := &n.shards[owner.Shard]
		m := sh.pool.Get()
		m.Kind, m.Hops = kind, hops
		m.Src, m.Dst, m.Via = src, dst, via
		m.OriginSeq, m.PathHash = originSeq, pathHash
		m.Entries = m.Entries[:0]
		for j := 0; j < nEntries; j++ {
			m.Entries = append(m.Entries, wire.ViewEntry{Desc: dec.Desc(), RouteTTL: dec.U32()})
		}
		if dec.Err() != nil {
			sh.pool.Put(m)
			return
		}
		d := delivery{srcEP: srcEP, to: to, msg: m, size: uint64(m.Size())}
		// Keys re-distribute to the resuming run's shards: this shard's
		// sub-sequence of the globally sorted list stays sorted, so the lane
		// accepts every key and fires in the original global order.
		n.scheduleEntry(sh, &outEntry{Key: k, jittered: jittered, d: d})
	}

	dec.Section(secDrop)
	for c := 0; c < int(trace.NumDropCauses); c++ {
		// Totals restore into shard 0; every read aggregates across shards.
		n.shards[0].drops[c] = dec.U64()
	}
}
