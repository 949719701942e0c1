package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// randMsg builds an arbitrary — possibly nonsensical — protocol message,
// including the patterns a Byzantine peer would craft: buffers stuffed with
// one forever-young descriptor repeated (colluder stuffing), self and nil
// descriptors, and forged route TTLs far beyond any honest hole lifetime.
func randMsg(rng *rand.Rand, selfID ident.NodeID) *wire.Message {
	randDesc := func() view.Descriptor {
		id := ident.NodeID(rng.Intn(12)) // includes 0 (nil) and selfID
		return view.Descriptor{
			ID:    id,
			Addr:  ident.Endpoint{IP: ident.IP(rng.Uint32()), Port: uint16(rng.Intn(1 << 16))},
			Class: ident.NATClass(rng.Intn(ident.NumClasses + 2)), // includes invalid
			Age:   rng.Uint32() % 100,
		}
	}
	m := &wire.Message{
		Kind: wire.Kind(rng.Intn(8)), // includes invalid kinds
		Hops: uint8(rng.Intn(64)),
		Src:  randDesc(),
		Dst:  randDesc(),
		Via:  randDesc(),
	}
	if rng.Intn(2) == 0 {
		m.Dst.ID = selfID // half the storm is addressed to the engine
	}
	switch rng.Intn(4) {
	case 0: // colluder stuffing: one descriptor, age 0, repeated to fill
		d := randDesc()
		d.Age = 0
		for i := rng.Intn(8) + 2; i > 0; i-- {
			m.Entries = append(m.Entries, wire.ViewEntry{Desc: d, RouteTTL: 1 << 30})
		}
	case 1: // self/nil injection with forged TTLs
		for i := rng.Intn(4) + 1; i > 0; i-- {
			d := randDesc()
			if rng.Intn(2) == 0 {
				d.ID = selfID
			} else {
				d.ID = 0
			}
			m.Entries = append(m.Entries, wire.ViewEntry{Desc: d, RouteTTL: rng.Uint32()})
		}
	default:
		for i := rng.Intn(6); i > 0; i-- {
			m.Entries = append(m.Entries, wire.ViewEntry{Desc: randDesc(), RouteTTL: rng.Uint32() % 200_000})
		}
	}
	return m
}

// stormEngine drives an engine with interleaved random messages and ticks,
// checking that it never panics, never corrupts its view, never accepts a
// self or nil descriptor into it, never emits a send without a destination,
// and never leaks pool messages. The engine draws from a private pool and
// the harness — playing the host — returns every emitted message, so any
// balance drift is an engine-side ownership bug.
func stormEngine(t *testing.T, build func(seed int64, pool *wire.Pool) Engine) {
	t.Helper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := &wire.Pool{}
		eng := build(seed, pool)
		selfID := eng.Self().ID
		now := int64(0)
		for step := 0; step < 200; step++ {
			var outs []Send
			if rng.Intn(5) == 0 {
				outs = eng.Tick(now)
				now += 5000
			} else {
				from := ident.Endpoint{IP: ident.IP(rng.Uint32()), Port: uint16(rng.Intn(1 << 16))}
				outs = eng.Receive(now, from, randMsg(rng, selfID))
				now += int64(rng.Intn(100))
			}
			for _, s := range outs {
				if s.Msg == nil {
					t.Fatalf("seed %d: nil message emitted", seed)
				}
				if s.To.IsZero() {
					t.Fatalf("seed %d: send without destination: %+v", seed, s)
				}
				pool.Put(s.Msg)
			}
			if err := eng.View().Validate(); err != nil {
				t.Fatalf("seed %d: view corrupt after step %d: %v", seed, step, err)
			}
			for v, i := eng.View(), 0; i < v.Len(); i++ {
				d := v.At(i)
				if d.ID == 0 || d.ID == selfID {
					t.Fatalf("seed %d: view accepted descriptor %d (self %d) at step %d", seed, d.ID, selfID, step)
				}
			}
			if bal := pool.Balance(); bal != 0 {
				t.Fatalf("seed %d: pool balance %d after step %d (leaked or double-released messages)", seed, bal, step)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func stormCfg(seed int64, pool *wire.Pool) Config {
	classes := []ident.NATClass{ident.Public, ident.RestrictedCone, ident.PortRestrictedCone, ident.Symmetric}
	rng := rand.New(rand.NewSource(seed))
	cfg := gcfg(1, classes[rng.Intn(len(classes))], true)
	cfg.Merge = view.Merge(rng.Intn(3))
	cfg.Selection = view.Selection(rng.Intn(2))
	cfg.EvictUnanswered = rng.Intn(2) == 0
	cfg.RNG = rng
	cfg.Msgs = pool
	return cfg
}

func TestGenericSurvivesMessageStorm(t *testing.T) {
	stormEngine(t, func(seed int64, pool *wire.Pool) Engine {
		g := NewGeneric(stormCfg(seed, pool))
		g.Bootstrap(0, []view.Descriptor{pubDesc(2), nattedDesc(3, ident.RestrictedCone)})
		return g
	})
}

func TestNylonSurvivesMessageStorm(t *testing.T) {
	stormEngine(t, func(seed int64, pool *wire.Pool) Engine {
		n := NewNylon(stormCfg(seed, pool))
		n.Bootstrap(0, []view.Descriptor{pubDesc(2), nattedDesc(3, ident.RestrictedCone)})
		return n
	})
}

func TestARRGSurvivesMessageStorm(t *testing.T) {
	stormEngine(t, func(seed int64, pool *wire.Pool) Engine {
		a := NewARRG(stormCfg(seed, pool), 4)
		a.Bootstrap(0, []view.Descriptor{pubDesc(2), nattedDesc(3, ident.RestrictedCone)})
		return a
	})
}

func TestStaticRVPSurvivesMessageStorm(t *testing.T) {
	stormEngine(t, func(seed int64, pool *wire.Pool) Engine {
		cfg := stormCfg(seed, pool)
		rvp := pubDesc(100)
		var own view.Descriptor
		if cfg.Self.Class.Natted() {
			own = rvp
		}
		s := NewStaticRVP(cfg, own, func(id ident.NodeID) (view.Descriptor, bool) {
			return rvp, id%2 == 0
		})
		s.Bootstrap(0, []view.Descriptor{pubDesc(2), nattedDesc(3, ident.RestrictedCone)})
		return s
	})
}

// TestNylonStormNeverLoopsToSender: even under storms, forwarded messages
// never go straight back to their transport-level sender.
func TestNylonStormNeverLoopsToSender(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNylon(stormCfg(seed, nil))
		n.Bootstrap(0, []view.Descriptor{nattedDesc(3, ident.RestrictedCone), nattedDesc(4, ident.PortRestrictedCone)})
		for step := 0; step < 100; step++ {
			msg := randMsg(rng, n.Self().ID)
			msg.Dst.ID = 99 // force the forwarding path
			from := ident.Endpoint{IP: ident.IP(rng.Uint32()), Port: 1}
			for _, s := range n.Receive(int64(step), from, msg) {
				forwarded := s.Msg.Kind == msg.Kind && s.Msg.Hops == msg.Hops+1
				if forwarded && s.ToID == msg.Via.ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
