package core

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// staticFixture wires a natted peer, its public RVP, and a natted target
// bound to the same RVP.
func staticFixture(t *testing.T, selfClass ident.NATClass) (*StaticRVP, view.Descriptor, view.Descriptor) {
	t.Helper()
	rvp := pubDesc(100)
	resolver := func(id ident.NodeID) (view.Descriptor, bool) {
		if id == 2 || id == 1 {
			return rvp, true
		}
		return view.Descriptor{}, false
	}
	var own view.Descriptor
	if selfClass.Natted() {
		own = rvp
	}
	s := NewStaticRVP(ncfg(1, selfClass), own, resolver)
	target := nattedDesc(2, ident.RestrictedCone)
	return s, rvp, target
}

func TestStaticRVPValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil resolver accepted")
		}
	}()
	NewStaticRVP(ncfg(1, ident.Public), view.Descriptor{}, nil)
}

func TestStaticRVPNattedNeedsRVP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("natted peer without RVP accepted")
		}
	}()
	NewStaticRVP(ncfg(1, ident.RestrictedCone), view.Descriptor{}, func(ident.NodeID) (view.Descriptor, bool) {
		return view.Descriptor{}, false
	})
}

func TestStaticRVPKeepalive(t *testing.T) {
	s, rvp, _ := staticFixture(t, ident.RestrictedCone)
	out := s.Tick(0)
	var pinged bool
	for _, snd := range out {
		if snd.Msg.Kind == wire.KindPing && snd.ToID == rvp.ID {
			pinged = true
		}
	}
	if !pinged {
		t.Errorf("no keepalive PING toward the RVP in %+v", out)
	}
	// Public peers send no keepalive.
	pub, _, _ := staticFixture(t, ident.Public)
	for _, snd := range pub.Tick(0) {
		if snd.Msg.Kind == wire.KindPing {
			t.Error("public peer sent keepalive PING")
		}
	}
}

func TestStaticRVPPunchThroughFixedRVP(t *testing.T) {
	s, rvp, target := staticFixture(t, ident.RestrictedCone)
	s.Bootstrap(0, []view.Descriptor{target})
	out := s.Tick(0)
	var openHole *Send
	for i := range out {
		if out[i].Msg.Kind == wire.KindOpenHole {
			openHole = &out[i]
		}
	}
	if openHole == nil || openHole.ToID != rvp.ID || openHole.Msg.Dst.ID != target.ID {
		t.Fatalf("OPEN_HOLE not routed through the fixed RVP: %+v", out)
	}
	// PONG arrives: REQUEST goes to the punched endpoint.
	punched := ident.Endpoint{IP: target.Addr.IP, Port: 7777}
	pong := &wire.Message{Kind: wire.KindPong, Src: target, Dst: s.Self(), Via: target}
	reply := s.Receive(200, punched, pong)
	if len(reply) != 1 || reply[0].Msg.Kind != wire.KindRequest || reply[0].To != punched {
		t.Fatalf("PONG handling = %+v", reply)
	}
	if s.Stats().HolePunchesCompleted != 1 {
		t.Error("punch not counted")
	}
}

func TestStaticRVPForwardsAsRVP(t *testing.T) {
	rvpSelf := NewStaticRVP(ncfg(100, ident.Public), view.Descriptor{}, func(ident.NodeID) (view.Descriptor, bool) {
		return view.Descriptor{}, false
	})
	client := nattedDesc(2, ident.RestrictedCone)
	clientEP := ident.Endpoint{IP: 0x40000002, Port: 1111}
	// The client's keepalive teaches the RVP its live endpoint.
	ping := &wire.Message{Kind: wire.KindPing, Src: client, Dst: rvpSelf.Self(), Via: client}
	rvpSelf.Receive(0, clientEP, ping)

	oh := &wire.Message{Kind: wire.KindOpenHole, Src: nattedDesc(4, ident.PortRestrictedCone), Dst: client, Via: nattedDesc(4, ident.PortRestrictedCone)}
	out := rvpSelf.Receive(10, ident.Endpoint{IP: 9, Port: 9}, oh)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindOpenHole {
		t.Fatalf("RVP did not forward OPEN_HOLE: %+v", out)
	}
	if out[0].To != clientEP {
		t.Errorf("forwarded to %v, want learned endpoint %v", out[0].To, clientEP)
	}
	if rvpSelf.Stats().Forwarded != 1 {
		t.Error("Forwarded not counted")
	}
}

func TestStaticRVPSymmetricRelaysWholeExchange(t *testing.T) {
	rvp := pubDesc(100)
	resolver := func(id ident.NodeID) (view.Descriptor, bool) { return rvp, id == 2 }
	s := NewStaticRVP(ncfg(1, ident.Public), view.Descriptor{}, resolver)
	symTarget := nattedDesc(2, ident.Symmetric)
	s.Bootstrap(0, []view.Descriptor{symTarget})
	out := s.Tick(0)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindRequest || out[0].ToID != rvp.ID {
		t.Fatalf("exchange with symmetric target not relayed: %+v", out)
	}
	if s.Stats().Relayed != 1 {
		t.Error("Relayed not counted")
	}
}

func TestStaticRVPUnresolvableTargetWastesRound(t *testing.T) {
	s := NewStaticRVP(ncfg(1, ident.Public), view.Descriptor{}, func(ident.NodeID) (view.Descriptor, bool) {
		return view.Descriptor{}, false
	})
	s.Bootstrap(0, []view.Descriptor{nattedDesc(9, ident.RestrictedCone)})
	if out := s.Tick(0); len(out) != 0 {
		t.Errorf("unresolvable target produced %+v", out)
	}
	if s.Stats().NoRoute != 1 {
		t.Errorf("NoRoute = %d", s.Stats().NoRoute)
	}
}

func TestStaticRVPAnswersPingWithPong(t *testing.T) {
	s, _, _ := staticFixture(t, ident.Public)
	src := nattedDesc(2, ident.RestrictedCone)
	fromEP := ident.Endpoint{IP: 0x40000002, Port: 2222}
	ping := &wire.Message{Kind: wire.KindPing, Src: src, Dst: s.Self(), Via: src}
	out := s.Receive(0, fromEP, ping)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindPong || out[0].To != fromEP {
		t.Fatalf("PING handling = %+v", out)
	}
}

func TestStaticRVPOpenHoleAtDestination(t *testing.T) {
	s, rvp, _ := staticFixture(t, ident.RestrictedCone)
	src := pubDesc(5)
	oh := &wire.Message{Kind: wire.KindOpenHole, Src: src, Dst: s.Self(), Via: rvp, Hops: 1}
	out := s.Receive(0, rvp.Addr, oh)
	if len(out) != 1 || out[0].Msg.Kind != wire.KindPong || out[0].To != src.Addr {
		t.Fatalf("OPEN_HOLE at destination = %+v", out)
	}
	if s.Stats().ChainSamples != 1 || s.Stats().ChainHopsTotal != 1 {
		t.Error("chain stats wrong: static RVP chains always have length 1")
	}
}
