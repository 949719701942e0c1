package core

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

func gcfg(id uint64, class ident.NATClass, pushPull bool) Config {
	return Config{
		Self: view.Descriptor{
			ID:    ident.NodeID(id),
			Addr:  ident.Endpoint{IP: ident.IP(0x01000000 + uint32(id)), Port: 9000},
			Class: class,
		},
		ViewSize:     4,
		Selection:    view.SelectRand,
		Merge:        view.MergeHealer,
		PushPull:     pushPull,
		HoleTimeout:  90_000,
		LatencyBound: 100,
		RNG:          rand.New(rand.NewSource(int64(id))),
	}
}

func pubDesc(id uint64) view.Descriptor {
	return view.Descriptor{ID: ident.NodeID(id), Addr: ident.Endpoint{IP: ident.IP(0x01000000 + uint32(id)), Port: 9000}, Class: ident.Public}
}

func TestGenericTickEmitsRequest(t *testing.T) {
	g := NewGeneric(gcfg(1, ident.Public, true))
	g.Bootstrap(0, []view.Descriptor{pubDesc(2)})
	out := g.Tick(0)
	if len(out) != 1 {
		t.Fatalf("Tick emitted %d sends, want 1", len(out))
	}
	s := out[0]
	if s.Msg.Kind != wire.KindRequest || s.ToID != 2 || s.To != pubDesc(2).Addr {
		t.Errorf("unexpected send %+v", s)
	}
	if s.Msg.Src.ID != 1 || s.Msg.Dst.ID != 2 || s.Msg.Via.ID != 1 {
		t.Errorf("bad message header %v", s.Msg)
	}
	// Entries: self (fresh) + view.
	if len(s.Msg.Entries) != 2 || s.Msg.Entries[0].Desc.ID != 1 || s.Msg.Entries[0].Desc.Age != 0 {
		t.Errorf("bad entries %v", s.Msg.Entries)
	}
	// The view aged.
	d, _ := g.View().Get(2)
	if d.Age != 1 {
		t.Errorf("view entry age = %d, want 1 after Tick", d.Age)
	}
	if g.Stats().ShufflesInitiated != 1 {
		t.Errorf("ShufflesInitiated = %d", g.Stats().ShufflesInitiated)
	}
}

func TestGenericTickEmptyView(t *testing.T) {
	g := NewGeneric(gcfg(1, ident.Public, true))
	if out := g.Tick(0); out != nil {
		t.Errorf("Tick on empty view emitted %v", out)
	}
	if g.Stats().ShufflesInitiated != 0 {
		t.Error("empty tick counted as initiated shuffle")
	}
}

func TestGenericRequestResponseCycle(t *testing.T) {
	a := NewGeneric(gcfg(1, ident.Public, true))
	b := NewGeneric(gcfg(2, ident.Public, true))
	a.Bootstrap(0, []view.Descriptor{pubDesc(2)})
	b.Bootstrap(0, []view.Descriptor{pubDesc(3)})

	req := a.Tick(0)[0]
	resp := b.Receive(50, req.Msg.Src.Addr, req.Msg)
	if len(resp) != 1 || resp[0].Msg.Kind != wire.KindResponse {
		t.Fatalf("responder emitted %v", resp)
	}
	// The response returns to the observed endpoint.
	if resp[0].To != req.Msg.Src.Addr {
		t.Errorf("response addressed to %v, want observed %v", resp[0].To, req.Msg.Src.Addr)
	}
	// b merged a's self descriptor.
	if !b.View().Contains(1) {
		t.Error("responder did not learn the initiator")
	}
	if out := a.Receive(100, resp[0].Msg.Src.Addr, resp[0].Msg); out != nil {
		t.Errorf("initiator emitted %v on response", out)
	}
	if !a.View().Contains(3) {
		t.Error("initiator did not learn the responder's view entry")
	}
	if a.Stats().ShufflesCompleted != 1 || b.Stats().ShufflesAnswered != 1 {
		t.Error("completion counters wrong")
	}
}

func TestGenericPushModeSendsNoResponse(t *testing.T) {
	b := NewGeneric(gcfg(2, ident.Public, false))
	req := &wire.Message{
		Kind: wire.KindRequest, Src: pubDesc(1), Dst: pubDesc(2), Via: pubDesc(1),
		Entries: []wire.ViewEntry{{Desc: pubDesc(1)}},
	}
	if out := b.Receive(0, pubDesc(1).Addr, req); len(out) != 0 {
		t.Errorf("push-mode responder emitted %v", out)
	}
	if !b.View().Contains(1) {
		t.Error("push-mode responder did not merge")
	}
}

func TestGenericIgnoresForeignKinds(t *testing.T) {
	g := NewGeneric(gcfg(1, ident.Public, true))
	for _, k := range []wire.Kind{wire.KindOpenHole, wire.KindPing, wire.KindPong} {
		msg := &wire.Message{Kind: k, Src: pubDesc(2), Dst: pubDesc(1), Via: pubDesc(2)}
		if out := g.Receive(0, pubDesc(2).Addr, msg); len(out) != 0 {
			t.Errorf("Generic reacted to %v: %v", k, out)
		}
	}
}

func TestGenericViewInvariantsUnderLongRun(t *testing.T) {
	// Two peers shuffling repeatedly must never corrupt their views.
	a := NewGeneric(gcfg(1, ident.Public, true))
	b := NewGeneric(gcfg(2, ident.Public, true))
	a.Bootstrap(0, []view.Descriptor{pubDesc(2), pubDesc(3)})
	b.Bootstrap(0, []view.Descriptor{pubDesc(1), pubDesc(4)})
	now := int64(0)
	for i := 0; i < 200; i++ {
		for _, s := range a.Tick(now) {
			if s.ToID == 2 {
				for _, r := range b.Receive(now+50, a.Self().Addr, s.Msg) {
					a.Receive(now+100, b.Self().Addr, r.Msg)
				}
			}
		}
		now += 5000
	}
	if err := a.View().Validate(); err != nil {
		t.Errorf("a's view invalid: %v", err)
	}
	if err := b.View().Validate(); err != nil {
		t.Errorf("b's view invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Self.ID = 0 },
		func(c *Config) { c.ViewSize = 0 },
		func(c *Config) { c.RNG = nil },
	}
	for i, mutate := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewGeneric did not panic", i)
				}
			}()
			cfg := gcfg(1, ident.Public, true)
			mutate(&cfg)
			NewGeneric(cfg)
		}()
	}
}
