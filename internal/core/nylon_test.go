package core

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/traversal"
	"repro/internal/view"
	"repro/internal/wire"
)

func ncfg(id uint64, class ident.NATClass) Config {
	c := gcfg(id, class, true)
	c.RNG = rand.New(rand.NewSource(int64(id) * 7))
	return c
}

func nattedDesc(id uint64, class ident.NATClass) view.Descriptor {
	return view.Descriptor{
		ID:    ident.NodeID(id),
		Addr:  ident.Endpoint{IP: ident.IP(0x40000000 + uint32(id)), Port: 1024},
		Class: class,
	}
}

func TestNylonDirectToPublicTarget(t *testing.T) {
	n := NewNylon(ncfg(1, ident.PortRestrictedCone))
	n.Bootstrap(0, []view.Descriptor{pubDesc(2)})
	out := n.Tick(0)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindRequest || out[0].ToID != 2 {
		t.Fatalf("Tick = %+v, want direct REQUEST to n2", out)
	}
}

func TestNylonHolePunchFlow(t *testing.T) {
	// n1 (PRC) wants to gossip with natted n3 (RC), known via RVP n2.
	n1 := NewNylon(ncfg(1, ident.PortRestrictedCone))
	rvp := nattedDesc(2, ident.RestrictedCone)
	target := nattedDesc(3, ident.RestrictedCone)
	n1.View().Add(target)
	n1.Routes().SetDirect(rvp, 90_000)
	n1.Routes().Set(target.ID, rvp, 90_000)

	out := n1.Tick(0)
	if len(out) != 2 {
		t.Fatalf("Tick emitted %d messages, want OPEN_HOLE + PING: %+v", len(out), out)
	}
	var openHole, ping *Send
	for i := range out {
		switch out[i].Msg.Kind {
		case wire.KindOpenHole:
			openHole = &out[i]
		case wire.KindPing:
			ping = &out[i]
		}
	}
	if openHole == nil || ping == nil {
		t.Fatalf("missing OPEN_HOLE or PING: %+v", out)
	}
	if openHole.ToID != rvp.ID || openHole.Msg.Dst.ID != target.ID {
		t.Errorf("OPEN_HOLE misrouted: %+v", openHole)
	}
	if ping.ToID != target.ID || ping.To != target.Addr {
		t.Errorf("PING misrouted: %+v", ping)
	}
	if n1.Stats().HolePunchesStarted != 1 {
		t.Error("HolePunchesStarted not counted")
	}

	// The PONG arrives from the target's punched mapping.
	punched := ident.Endpoint{IP: target.Addr.IP, Port: 2000}
	pong := &wire.Message{Kind: wire.KindPong, Src: target, Dst: n1.Self(), Via: target}
	reply := n1.Receive(150, punched, pong)
	if len(reply) != 1 || reply[0].Msg.Kind != wire.KindRequest {
		t.Fatalf("PONG did not trigger REQUEST: %+v", reply)
	}
	// The REQUEST goes to the observed (punched) endpoint, not the
	// advertised one.
	if reply[0].To != punched {
		t.Errorf("REQUEST to %v, want punched endpoint %v", reply[0].To, punched)
	}
	if n1.Stats().HolePunchesCompleted != 1 {
		t.Error("HolePunchesCompleted not counted")
	}
	// A duplicate PONG must not trigger a second REQUEST.
	if dup := n1.Receive(160, punched, pong); len(dup) != 0 {
		t.Errorf("duplicate PONG triggered %v", dup)
	}
}

func TestNylonStalePongIgnored(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.PortRestrictedCone))
	target := nattedDesc(3, ident.RestrictedCone)
	pong := &wire.Message{Kind: wire.KindPong, Src: target, Dst: n1.Self(), Via: target}
	if out := n1.Receive(0, target.Addr, pong); len(out) != 0 {
		t.Errorf("unsolicited PONG triggered %v", out)
	}
}

func TestNylonNoRouteWastesRound(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.PortRestrictedCone))
	n1.View().Add(nattedDesc(3, ident.RestrictedCone)) // no route installed
	if out := n1.Tick(0); len(out) != 0 {
		t.Errorf("Tick without route emitted %v", out)
	}
	if n1.Stats().NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", n1.Stats().NoRoute)
	}
}

func TestNylonRelayInitiationForSymmetric(t *testing.T) {
	// A symmetric initiator relays the whole REQUEST through the chain.
	n1 := NewNylon(ncfg(1, ident.Symmetric))
	rvp := pubDesc(2)
	target := nattedDesc(3, ident.RestrictedCone)
	n1.View().Add(target)
	n1.Routes().Set(target.ID, rvp, 90_000)
	out := n1.Tick(0)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindRequest || out[0].ToID != rvp.ID {
		t.Fatalf("symmetric initiator emitted %+v, want relayed REQUEST via n2", out)
	}
	if out[0].Msg.Dst.ID != target.ID {
		t.Errorf("relayed REQUEST Dst = %v, want target", out[0].Msg.Dst.ID)
	}
	if n1.Stats().Relayed != 1 {
		t.Error("Relayed not counted")
	}
}

func TestNylonPRCToSymmetricRelays(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.PortRestrictedCone))
	rvp := pubDesc(2)
	target := nattedDesc(3, ident.Symmetric)
	n1.View().Add(target)
	n1.Routes().Set(target.ID, rvp, 90_000)
	out := n1.Tick(0)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindRequest {
		t.Fatalf("PRC→SYM emitted %+v, want relayed REQUEST", out)
	}
}

func TestNylonForwardsAlongChain(t *testing.T) {
	// n2 relays an OPEN_HOLE from n4 toward n1 via its own route (n1 direct).
	n2 := NewNylon(ncfg(2, ident.RestrictedCone))
	dest := nattedDesc(1, ident.RestrictedCone)
	n2.Routes().SetDirect(dest, 90_000)
	src := nattedDesc(4, ident.PortRestrictedCone)
	oh := &wire.Message{Kind: wire.KindOpenHole, Src: src, Dst: dest, Via: nattedDesc(3, ident.RestrictedCone), Hops: 1}
	out := n2.Receive(0, ident.Endpoint{IP: 7, Port: 7}, oh)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindOpenHole {
		t.Fatalf("forward = %+v", out)
	}
	if out[0].ToID != dest.ID || out[0].Msg.Hops != 2 || out[0].Msg.Via.ID != 2 {
		t.Errorf("forwarded message wrong: to=%v hops=%d via=%v", out[0].ToID, out[0].Msg.Hops, out[0].Msg.Via.ID)
	}
	if n2.Stats().Forwarded != 1 {
		t.Error("Forwarded not counted")
	}
	// Reverse path learned: n2 can now route toward n4 via n3.
	if _, ok := n2.Routes().Next(src.ID, 0); !ok {
		t.Error("reverse path to originator not learned")
	}
}

func TestNylonOpenHoleAtDestinationPongs(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.RestrictedCone))
	src := nattedDesc(4, ident.PortRestrictedCone)
	oh := &wire.Message{Kind: wire.KindOpenHole, Src: src, Dst: n1.Self(), Via: nattedDesc(2, ident.RestrictedCone), Hops: 2}
	out := n1.Receive(0, ident.Endpoint{IP: 9, Port: 9}, oh)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindPong {
		t.Fatalf("OPEN_HOLE at dest emitted %+v, want PONG", out)
	}
	if out[0].To != src.Addr || out[0].ToID != src.ID {
		t.Errorf("PONG to %v, want %v", out[0].To, src.Addr)
	}
	// Chain metric: hops=2 forwards plus the initial RVP = 3 RVPs.
	st := n1.Stats()
	if st.ChainSamples != 1 || st.ChainHopsTotal != 3 {
		t.Errorf("chain stats = %d/%d, want 3/1", st.ChainHopsTotal, st.ChainSamples)
	}
}

func TestNylonPingGetsPong(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.RestrictedCone))
	src := nattedDesc(4, ident.PortRestrictedCone)
	fromEP := ident.Endpoint{IP: 0x40000004, Port: 3333}
	ping := &wire.Message{Kind: wire.KindPing, Src: src, Dst: n1.Self(), Via: src}
	out := n1.Receive(0, fromEP, ping)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindPong || out[0].To != fromEP {
		t.Fatalf("PING handling = %+v, want PONG to observed endpoint", out)
	}
}

func TestNylonRequestMergesAndRoutes(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.Public))
	src := nattedDesc(4, ident.RestrictedCone)
	carried := nattedDesc(9, ident.PortRestrictedCone)
	req := &wire.Message{
		Kind: wire.KindRequest, Src: src, Dst: n1.Self(), Via: src,
		Entries: []wire.ViewEntry{
			{Desc: src.Fresh()},
			{Desc: carried, RouteTTL: 60_000},
			{Desc: pubDesc(5)},
		},
	}
	fromEP := ident.Endpoint{IP: 0x40000004, Port: 4444}
	out := n1.Receive(0, fromEP, req)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindResponse || out[0].To != fromEP {
		t.Fatalf("REQUEST handling = %+v", out)
	}
	if !n1.View().Contains(src.ID) || !n1.View().Contains(carried.ID) || !n1.View().Contains(5) {
		t.Errorf("view after merge: %v", n1.View())
	}
	// Route to the carried natted entry installed via the sender, with the
	// advertised TTL discounted by the latency bound.
	e, ok := n1.Routes().Get(carried.ID, 0)
	if !ok || e.RVP.ID != src.ID {
		t.Fatalf("route to carried entry = %+v, %v", e, ok)
	}
	if e.ExpireAt != 60_000-100 {
		t.Errorf("route expiry = %d, want 59900", e.ExpireAt)
	}
	// Direct route to the sender uses the observed endpoint.
	d, ok := n1.Routes().Get(src.ID, 0)
	if !ok || d.RVP.Addr != fromEP {
		t.Errorf("sender route = %+v, %v; want observed endpoint", d, ok)
	}
}

func TestNylonRouteTTLCappedByHoleTimeout(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.Public))
	src := nattedDesc(4, ident.RestrictedCone)
	carried := nattedDesc(9, ident.PortRestrictedCone)
	req := &wire.Message{
		Kind: wire.KindRequest, Src: src, Dst: n1.Self(), Via: src,
		Entries: []wire.ViewEntry{{Desc: carried, RouteTTL: 500_000}},
	}
	n1.Receive(0, src.Addr, req)
	e, ok := n1.Routes().Get(carried.ID, 0)
	if !ok || e.ExpireAt != 90_000-100 {
		t.Errorf("route expiry = %+v (%v), want holeTimeout-latencyBound", e, ok)
	}
}

func TestNylonSymmetricResponderRelaysBack(t *testing.T) {
	// A symmetric responder must send its RESPONSE along the chain, not
	// directly (Fig. 6 lines 20-22).
	n3 := NewNylon(ncfg(3, ident.Symmetric))
	src := nattedDesc(4, ident.RestrictedCone)
	relay := nattedDesc(2, ident.RestrictedCone)
	relayEP := ident.Endpoint{IP: 0x40000002, Port: 5555}
	req := &wire.Message{
		Kind: wire.KindRequest, Src: src, Dst: n3.Self(), Via: relay, Hops: 1,
		Entries: []wire.ViewEntry{{Desc: src.Fresh()}},
	}
	out := n3.Receive(0, relayEP, req)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindResponse {
		t.Fatalf("symmetric responder emitted %+v", out)
	}
	// The response's first hop is the relay (reverse path), not src.
	if out[0].ToID != relay.ID || out[0].To != relayEP {
		t.Errorf("response first hop = %v@%v, want relay %v@%v", out[0].ToID, out[0].To, relay.ID, relayEP)
	}
	if out[0].Msg.Dst.ID != src.ID {
		t.Errorf("response Dst = %v, want src", out[0].Msg.Dst.ID)
	}
}

func TestNylonForwardHopLimit(t *testing.T) {
	n2 := NewNylon(ncfg(2, ident.RestrictedCone))
	dest := nattedDesc(1, ident.RestrictedCone)
	n2.Routes().SetDirect(dest, 90_000)
	oh := &wire.Message{Kind: wire.KindOpenHole, Src: nattedDesc(4, ident.RestrictedCone), Dst: dest, Via: nattedDesc(3, ident.RestrictedCone), Hops: maxForwardHops}
	if out := n2.Receive(0, ident.Endpoint{IP: 7, Port: 7}, oh); len(out) != 0 {
		t.Errorf("over-limit message forwarded: %v", out)
	}
}

func TestNylonBootstrapInstallsRoutes(t *testing.T) {
	n1 := NewNylon(ncfg(1, ident.PortRestrictedCone))
	seed := nattedDesc(2, ident.RestrictedCone)
	n1.Bootstrap(0, []view.Descriptor{seed, pubDesc(3)})
	if rvp, ok := n1.Routes().Next(seed.ID, 0); !ok || rvp.ID != seed.ID {
		t.Error("bootstrap did not install direct route to natted seed")
	}
	if n1.View().Len() != 2 {
		t.Errorf("view after bootstrap: %v", n1.View())
	}
}

func TestNylonBufferAdvertisesTTLs(t *testing.T) {
	cfg := ncfg(1, ident.Public)
	cfg.ViewSize = 8 // exchange length 3 covers both entries below
	n1 := NewNylon(cfg)
	natted := nattedDesc(2, ident.RestrictedCone)
	n1.View().Add(natted)
	n1.View().Add(pubDesc(3))
	n1.Routes().Set(natted.ID, pubDesc(5), 40_000)
	msg := new(wire.Message)
	sent := n1.buffer(msg, nil)
	entries := n1.withTTLs(10_000, msg).Entries
	if len(sent) != 2 || len(entries) != 3 {
		t.Fatalf("buffer shipped %d entries + self (%d total), want both view entries", len(sent), len(entries))
	}
	if entries[0].Desc.ID != 1 || entries[0].Desc.Age != 0 {
		t.Errorf("buffer head is not the fresh self descriptor: %v", entries[0].Desc)
	}
	var nattedTTL, pubTTL uint32
	for _, e := range entries[1:] {
		switch e.Desc.ID {
		case 2:
			nattedTTL = e.RouteTTL
		case 3:
			pubTTL = e.RouteTTL
		}
	}
	if nattedTTL != 30_000 {
		t.Errorf("natted entry RouteTTL = %d, want 30000", nattedTTL)
	}
	if pubTTL != 0 {
		t.Errorf("public entry RouteTTL = %d, want 0", pubTTL)
	}
}

// TestRelayConditions holds the engine to the paper's table of traversal
// techniques (§2.2, traversal.Decide): for every (initiator, target) class
// pair, what Nylon.Tick does toward a target it knows only through a public
// RVP — REQUEST to the target, OPEN_HOLE, or REQUEST to the RVP — is what the
// table says, except for the deviations listed, each with its reason. Then
// the two relay predicates of Fig. 6 directly.
func TestRelayConditions(t *testing.T) {
	type pair struct{ src, dst ident.NATClass }
	deviations := map[pair]traversal.Method{
		// Table: modified hole punching (the symmetric side guesses nothing,
		// the cone side learns its port from the first datagram). Fig. 6 has
		// no such exchange: line 5 relays whenever the initiator is symmetric.
		{ident.Symmetric, ident.RestrictedCone}: traversal.Relay,
		// Table: relay. The engine punches: the OPEN_HOLE reaches the
		// symmetric target over the chain, and the PONG it sends straight to
		// an initiator that filters nothing opens the very mapping the
		// REQUEST then uses.
		{ident.Public, ident.Symmetric}:   traversal.HolePunch,
		{ident.FullCone, ident.Symmetric}: traversal.HolePunch,
	}
	classes := []ident.NATClass{ident.Public, ident.FullCone, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric}
	for _, src := range classes {
		for _, dst := range classes {
			n := NewNylon(ncfg(1, src))
			rvp, target := pubDesc(2), nattedDesc(3, dst)
			n.View().Add(target)
			n.Routes().Set(target.ID, rvp, 90_000)
			got := traversal.Method(255)
			for _, s := range n.Tick(0) {
				switch {
				case s.Msg.Kind == wire.KindOpenHole:
					got = traversal.HolePunch
				case s.Msg.Kind == wire.KindRequest && s.ToID == target.ID:
					got = traversal.Direct
				case s.Msg.Kind == wire.KindRequest && s.ToID == rvp.ID:
					got = traversal.Relay
				}
			}
			want, deviates := deviations[pair{src, dst}]
			if table := traversal.Decide(src, dst); !deviates {
				want = table
			} else if want == table {
				t.Errorf("%v→%v is listed as a deviation but agrees with the table (%v)", src, dst, table)
			}
			if got != want {
				t.Errorf("%v→%v: the engine does %v, want %v", src, dst, got, want)
			}
		}
	}

	pub := pubDesc(1)
	rc := nattedDesc(2, ident.RestrictedCone)
	prc := nattedDesc(3, ident.PortRestrictedCone)
	sym := nattedDesc(4, ident.Symmetric)

	// Fig. 6 line 5.
	initCases := []struct {
		self, target view.Descriptor
		want         bool
	}{
		{prc, sym, true},
		{sym, rc, true},
		{sym, sym, true},
		{rc, sym, false}, // RC→SYM hole punches
		{pub, sym, false},
		{prc, rc, false},
	}
	for _, c := range initCases {
		if got := relayInitiate(c.self, c.target); got != c.want {
			t.Errorf("relayInitiate(%v, %v) = %v, want %v", c.self.Class, c.target.Class, got, c.want)
		}
	}
	// Fig. 6 line 20.
	respCases := []struct {
		self, src view.Descriptor
		want      bool
	}{
		{rc, sym, true},
		{sym, rc, true},
		{pub, sym, false},
		{sym, pub, false},
		{prc, rc, false},
	}
	for _, c := range respCases {
		if got := relayRespond(c.self, c.src); got != c.want {
			t.Errorf("relayRespond(%v, %v) = %v, want %v", c.self.Class, c.src.Class, got, c.want)
		}
	}
}
