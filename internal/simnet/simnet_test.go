package simnet

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/view"
	"repro/internal/wire"
)

const (
	holeTimeout = 90_000
	latency     = 50
)

func nylonFactory(seed int64) EngineFactory {
	return func(self view.Descriptor) core.Engine {
		return core.NewNylon(core.Config{
			Self:         self,
			ViewSize:     8,
			Selection:    view.SelectRand,
			Merge:        view.MergeHealer,
			PushPull:     true,
			HoleTimeout:  holeTimeout,
			LatencyBound: 2 * latency,
			RNG:          rand.New(rand.NewSource(seed)),
		})
	}
}

func genericFactory(seed int64) EngineFactory {
	return func(self view.Descriptor) core.Engine {
		return core.NewGeneric(core.Config{
			Self:      self,
			ViewSize:  8,
			Selection: view.SelectRand,
			Merge:     view.MergeHealer,
			PushPull:  true,
			RNG:       rand.New(rand.NewSource(seed)),
		})
	}
}

// newNet returns a network on a one-shard kernel: sends stage in the shard's
// outbox and the kernel's barriers (one per latency window) schedule them.
func newNet() (*sim.ShardedScheduler, *Network) {
	kern := sim.NewSharded(1, 1, latency)
	return kern, NewSharded(kern, latency)
}

// tick runs one shuffling period of a live peer and transmits what its engine
// emits, as the experiment harness's tick events do.
func tick(net *Network, p *Peer) {
	if !p.Alive {
		return
	}
	for _, s := range p.Engine.Tick(net.shards[p.Shard].sched.Now()) {
		net.Send(p, s)
	}
}

func TestPublicPeersExchangeDirectly(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	b := net.AddPeer(2, ident.Public, holeTimeout, genericFactory(2))
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{b.Descriptor()})

	tick(net, a)
	sched.RunUntil(1000)

	if !b.Engine.View().Contains(1) {
		t.Error("responder never learned initiator")
	}
	if a.Engine.Stats().ShufflesCompleted != 1 {
		t.Error("initiator did not complete the shuffle")
	}
	if a.BytesSent == 0 || b.BytesRecv == 0 || b.BytesSent == 0 || a.BytesRecv == 0 {
		t.Errorf("byte accounting missing: a=%d/%d b=%d/%d", a.BytesSent, a.BytesRecv, b.BytesSent, b.BytesRecv)
	}
	if a.BytesSent != b.BytesRecv || b.BytesSent != a.BytesRecv {
		t.Errorf("sent/received mismatch: a=%d/%d b=%d/%d", a.BytesSent, a.BytesRecv, b.BytesSent, b.BytesRecv)
	}
}

// TestBaselineDroppedAtNAT shows the pathology of Section 3: a NAT-oblivious
// REQUEST to a natted peer with no filtering rule is silently eaten.
func TestBaselineDroppedAtNAT(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	b := net.AddPeer(2, ident.PortRestrictedCone, holeTimeout, genericFactory(2))
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{b.Descriptor()})

	tick(net, a)
	sched.RunUntil(1000)

	if b.MsgsRecv != 0 {
		t.Errorf("natted peer received %d datagrams, want 0", b.MsgsRecv)
	}
	if net.Drops().NATFiltered != 1 {
		t.Errorf("NATFiltered = %d, want 1", net.Drops().NATFiltered)
	}
	if a.Engine.Stats().ShufflesCompleted != 0 {
		t.Error("initiator claims completion despite drop")
	}
}

// TestInstallHoleMakesBootstrapUsable verifies the join-handshake helper.
func TestInstallHoleMakesBootstrapUsable(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	b := net.AddPeer(2, ident.PortRestrictedCone, holeTimeout, genericFactory(2))
	net.InstallHole(a, b)
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{b.Descriptor()})

	tick(net, a)
	sched.RunUntil(1000)

	if b.MsgsRecv != 1 {
		t.Errorf("natted peer received %d datagrams, want 1", b.MsgsRecv)
	}
	if a.Engine.Stats().ShufflesCompleted != 1 {
		t.Error("shuffle through installed hole did not complete")
	}
}

// TestNylonHolePunchEndToEnd runs the full Fig. 5 scenario over real NAT
// devices: n4 punches a hole to n1 through the chain n3 → n2.
func TestNylonHolePunchEndToEnd(t *testing.T) {
	sched, net := newNet()
	n1 := net.AddPeer(1, ident.RestrictedCone, holeTimeout, nylonFactory(1))
	n2 := net.AddPeer(2, ident.RestrictedCone, holeTimeout, nylonFactory(2))
	n3 := net.AddPeer(3, ident.RestrictedCone, holeTimeout, nylonFactory(3))
	n4 := net.AddPeer(4, ident.PortRestrictedCone, holeTimeout, nylonFactory(4))

	// Holes along the chain, as successive shuffles would have left them:
	// n1<->n2, n2<->n3, n3<->n4.
	for _, pair := range [][2]*Peer{{n1, n2}, {n2, n3}, {n3, n4}} {
		net.InstallHole(pair[0], pair[1])
	}
	e1, e2, e3, e4 := n1.Engine.(*core.Nylon), n2.Engine.(*core.Nylon), n3.Engine.(*core.Nylon), n4.Engine.(*core.Nylon)
	e2.Routes().SetDirect(n1.Descriptor(), holeTimeout)
	e2.Routes().SetDirect(n3.Descriptor(), holeTimeout)
	e3.Routes().SetDirect(n2.Descriptor(), holeTimeout)
	e3.Routes().SetDirect(n4.Descriptor(), holeTimeout)
	e4.Routes().SetDirect(n3.Descriptor(), holeTimeout)
	// Routing chain toward n1: n4 via n3, n3 via n2, n2 direct.
	e4.Routes().Set(1, n3.Descriptor(), holeTimeout)
	e3.Routes().Set(1, n2.Descriptor(), holeTimeout)
	// n4's view contains only n1, so the shuffle targets it.
	e4.View().Add(n1.Descriptor())
	_ = e1

	tick(net, n4)
	sched.RunUntil(10_000)

	if got := n4.Engine.Stats().HolePunchesCompleted; got != 1 {
		t.Fatalf("hole punch did not complete: %d (drops: %+v)", got, net.Drops())
	}
	if n4.Engine.Stats().ShufflesCompleted != 1 {
		t.Error("shuffle after punch did not complete")
	}
	if !n1.Engine.View().Contains(4) {
		t.Error("target never merged the initiator")
	}
	// Chain length observed at n1: OPEN_HOLE traveled n4→n3→n2→n1 = 2
	// forwards + initial RVP = 3 RVPs.
	st := n1.Engine.Stats()
	if st.ChainSamples != 1 || st.ChainHopsTotal != 3 {
		t.Errorf("chain sample = %d/%d, want 3/1", st.ChainHopsTotal, st.ChainSamples)
	}
	// Relays carried load.
	if n2.Engine.Stats().Forwarded != 1 || n3.Engine.Stats().Forwarded != 1 {
		t.Errorf("forward counts: n2=%d n3=%d, want 1/1", n2.Engine.Stats().Forwarded, n3.Engine.Stats().Forwarded)
	}
	// After the punch, n4 and n1 hold mutual direct routes.
	if rvp, ok := e4.Routes().Next(1, sched.Now()); !ok || rvp.ID != 1 {
		t.Error("n4 lacks direct route to n1 after punch")
	}
	if rvp, ok := e1.Routes().Next(4, sched.Now()); !ok || rvp.ID != 4 {
		t.Error("n1 lacks direct route to n4 after punch")
	}
}

// TestNylonSymmetricRelayEndToEnd checks that a symmetric initiator completes
// a relayed shuffle with a natted target over real devices.
func TestNylonSymmetricRelayEndToEnd(t *testing.T) {
	sched, net := newNet()
	s := net.AddPeer(1, ident.Symmetric, holeTimeout, nylonFactory(1))
	r := net.AddPeer(2, ident.Public, holeTimeout, nylonFactory(2))
	tgt := net.AddPeer(3, ident.RestrictedCone, holeTimeout, nylonFactory(3))

	net.InstallHole(s, r)
	net.InstallHole(r, tgt)
	es, er := s.Engine.(*core.Nylon), r.Engine.(*core.Nylon)
	er.Routes().SetDirect(tgt.Descriptor(), holeTimeout)
	es.Routes().Set(3, r.Descriptor(), holeTimeout)
	es.View().Add(tgt.Descriptor())

	tick(net, s)
	sched.RunUntil(10_000)

	if s.Engine.Stats().ShufflesCompleted != 1 {
		t.Fatalf("symmetric relayed shuffle did not complete (drops %+v)", net.Drops())
	}
	if !tgt.Engine.View().Contains(1) {
		t.Error("target did not merge the symmetric initiator")
	}
	if r.Engine.Stats().Forwarded == 0 {
		t.Error("relay forwarded nothing")
	}
}

func TestKillDropsTraffic(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	b := net.AddPeer(2, ident.Public, holeTimeout, genericFactory(2))
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{b.Descriptor()})
	net.Kill(2)
	tick(net, a)
	sched.RunUntil(1000)
	if net.Drops().DeadPeer != 1 {
		t.Errorf("DeadPeer drops = %d, want 1", net.Drops().DeadPeer)
	}
	if a.Engine.Stats().ShufflesCompleted != 0 {
		t.Error("shuffle with dead peer completed")
	}
	// Ticking a dead peer is a no-op.
	tick(net, b)
	if b.MsgsSent != 0 {
		t.Error("dead peer sent messages")
	}
}

func TestReachableSemantics(t *testing.T) {
	sched, net := newNet()
	q := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	p := net.AddPeer(2, ident.PortRestrictedCone, holeTimeout, genericFactory(2))
	pub := net.AddPeer(3, ident.Public, holeTimeout, genericFactory(3))

	now := sched.Now()
	if !net.Reachable(now, q, pub.Descriptor()) {
		t.Error("public peer unreachable")
	}
	if net.Reachable(now, q, p.Descriptor()) {
		t.Error("natted peer reachable without rule")
	}
	// After p contacts q, q can reach p (PRC admits exact endpoint).
	p.Device.Outbound(now, p.Priv, q.Addr)
	if !net.Reachable(now, q, p.Descriptor()) {
		t.Error("natted peer unreachable despite rule toward q")
	}
	// But another public peer still cannot.
	if net.Reachable(now, pub, p.Descriptor()) {
		t.Error("rule leaked to unrelated peer")
	}
	// The rule dies with time.
	sched.RunUntil(now + holeTimeout + 1)
	if net.Reachable(sched.Now(), q, p.Descriptor()) {
		t.Error("reachability survived rule expiry")
	}
}

func TestReachableRestrictedConeByIP(t *testing.T) {
	sched, net := newNet()
	q := net.AddPeer(1, ident.PortRestrictedCone, holeTimeout, genericFactory(1))
	p := net.AddPeer(2, ident.RestrictedCone, holeTimeout, genericFactory(2))
	now := sched.Now()
	// p opened a rule toward q's advertised mapping; RC filters by IP, so
	// q remains reachable→p even though q's next mapping port is unknown.
	p.Device.Outbound(now, p.Priv, q.Addr)
	if !net.Reachable(now, q, p.Descriptor()) {
		t.Error("RC destination unreachable despite IP rule")
	}
}

func TestDuplicatePeerPanics(t *testing.T) {
	_, net := newNet()
	net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddPeer did not panic")
		}
	}()
	net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
}

func TestUnknownAddressDrop(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	msg := &wire.Message{Kind: wire.KindPing, Src: a.Descriptor(), Dst: a.Descriptor(), Via: a.Descriptor()}
	net.Send(a, core.Send{To: ident.Endpoint{IP: 0x7e000001, Port: 1}, ToID: 99, Msg: msg})
	sched.RunUntil(1000)
	if net.Drops().NoSuchAddr != 1 {
		t.Errorf("NoSuchAddr = %d, want 1", net.Drops().NoSuchAddr)
	}
}

func TestOwnerOfIP(t *testing.T) {
	_, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	b := net.AddPeer(2, ident.Symmetric, holeTimeout, genericFactory(2))
	if got, ok := net.OwnerOfIP(a.Addr.IP); !ok || got != a {
		t.Error("public owner lookup failed")
	}
	if got, ok := net.OwnerOfIP(b.Device.PublicIP()); !ok || got != b {
		t.Error("device owner lookup failed")
	}
	if _, ok := net.OwnerOfIP(0x7e000001); ok {
		t.Error("unknown IP had an owner")
	}
}

// TestFullConeBehavesLikePublic verifies §2.2's observation: a full-cone
// peer with a live mapping accepts unsolicited traffic from anyone.
func TestFullConeBehavesLikePublic(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	fc := net.AddPeer(2, ident.FullCone, holeTimeout, genericFactory(2))
	// The join handshake allocated fc's mapping; a never contacted fc.
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{fc.Descriptor()})
	tick(net, a)
	sched.RunUntil(1000)
	if fc.MsgsRecv != 1 {
		t.Errorf("full-cone peer received %d datagrams, want 1", fc.MsgsRecv)
	}
	if a.Engine.Stats().ShufflesCompleted != 1 {
		t.Error("shuffle with full-cone peer failed")
	}
	// But the mapping must be alive: after the rule TTL it goes dark (the
	// device still owns the IP, so the drop counts as NAT-filtered).
	sched.RunUntil(sched.Now() + 2*holeTimeout)
	before := net.Drops().NATFiltered
	tick(net, a)
	sched.RunUntil(sched.Now() + 1000)
	if net.Drops().NATFiltered != before+1 {
		t.Errorf("expired full-cone mapping still routed (drops %d -> %d)", before, net.Drops().NATFiltered)
	}
}

// TestUPnPPeerAcceptsUnsolicited verifies the NAT-PMP/UPnP pinhole: a natted
// peer with an explicit port mapping is reachable like a public one, forever.
func TestUPnPPeerAcceptsUnsolicited(t *testing.T) {
	sched, net := newNet()
	a := net.AddPeer(1, ident.Public, holeTimeout, genericFactory(1))
	u := net.AddPeerUPnP(2, ident.PortRestrictedCone, holeTimeout, genericFactory(2))
	if u.Descriptor().Class != ident.Public {
		t.Fatalf("UPnP peer advertises %v, want public", u.Descriptor().Class)
	}
	a.Engine.(*core.Generic).Bootstrap(0, []view.Descriptor{u.Descriptor()})

	tick(net, a)
	sched.RunUntil(1000)
	if a.Engine.Stats().ShufflesCompleted != 1 {
		t.Fatal("shuffle with UPnP peer failed")
	}
	// Unlike a full-cone mapping, a pinhole survives arbitrary idleness.
	sched.RunUntil(sched.Now() + 10*holeTimeout)
	tick(net, a)
	sched.RunUntil(sched.Now() + 1000)
	if a.Engine.Stats().ShufflesCompleted != 2 {
		t.Error("pinhole expired; UPnP mapping must be permanent")
	}
	if !net.Reachable(sched.Now(), a, u.Descriptor()) {
		t.Error("Reachable reports UPnP peer unreachable")
	}
}

func TestAddPeerUPnPValidation(t *testing.T) {
	_, net := newNet()
	defer func() {
		if recover() == nil {
			t.Fatal("AddPeerUPnP accepted a public class")
		}
	}()
	net.AddPeerUPnP(1, ident.Public, holeTimeout, genericFactory(1))
}

// TestPeerIndexGrowthAndAdversarialIDs exercises the roster by ID: dense
// sequential IDs across several slab chunk rollovers must all resolve, misses
// must stay misses, and an ID beyond the population cap is refused rather than
// sizing the roster.
func TestPeerIndexGrowthAndAdversarialIDs(t *testing.T) {
	_, n := newNet()
	factory := func(self view.Descriptor) core.Engine {
		return core.NewGeneric(core.Config{
			Self: self, ViewSize: 4, RNG: rand.New(rand.NewSource(int64(self.ID))),
		})
	}
	const peers = 2000 // several slab chunks: 256, 512, 1024, ...
	var first *Peer
	for id := ident.NodeID(1); id <= peers; id++ {
		class := ident.Public
		if id%3 == 0 {
			class = ident.PortRestrictedCone
		}
		if p := n.AddPeer(id, class, 90_000, factory); id == 1 {
			first = p
		}
	}
	if n.PeerCount() != peers {
		t.Fatalf("PeerCount = %d, want %d", n.PeerCount(), peers)
	}
	for id := ident.NodeID(1); id <= peers; id++ {
		p := n.Peer(id)
		if p == nil || p.ID != id {
			t.Fatalf("Peer(%v) = %v after growth", id, p)
		}
	}
	for _, id := range []ident.NodeID{0, peers + 1, 1 << 50} {
		if p := n.Peer(id); p != nil {
			t.Fatalf("Peer(%v) = %v, want nil", id, p)
		}
	}
	// Slab addresses must be stable: mutate the first peer through the pointer
	// its attachment returned and re-resolve it.
	first.BytesSent = 42
	if n.Peer(1).BytesSent != 42 {
		t.Fatal("slab pointer not stable across growth")
	}
	for _, id := range []ident.NodeID{0, MaxPeers + 1, 1 << 50} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddPeer(%v) did not panic", id)
				}
			}()
			n.AddPeer(id, ident.Public, 90_000, factory)
		}()
	}
	if n.PeerCount() != peers || len(n.Peers()) != peers {
		t.Errorf("refused IDs grew the roster: %d slots, %d by ID", n.PeerCount(), len(n.Peers()))
	}
}
