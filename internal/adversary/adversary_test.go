package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

func desc(id uint64, class ident.NATClass) view.Descriptor {
	return view.Descriptor{
		ID:    ident.NodeID(id),
		Addr:  ident.Endpoint{IP: ident.IP(0x0a000000 + uint32(id)), Port: 9000},
		Class: class,
	}
}

// honest builds a bootstrapped Generic engine, the simplest honest inner.
func honest(id uint64, seed int64) core.Engine {
	g := core.NewGeneric(core.Config{
		Self:         desc(id, ident.Public),
		ViewSize:     8,
		Selection:    view.SelectRand,
		Merge:        view.MergeHealer,
		PushPull:     true,
		HoleTimeout:  90_000,
		LatencyBound: 100,
		RNG:          rand.New(rand.NewSource(seed)),
	})
	g.Bootstrap(0, []view.Descriptor{desc(2, ident.Public), desc(3, ident.RestrictedCone), desc(4, ident.Public)})
	return g
}

func colluders(ids ...uint64) *ColluderSet {
	cs := NewColluderSet()
	for _, id := range ids {
		cs.Add(desc(id, ident.Public), 0)
	}
	return cs
}

// tickUntilShuffle ticks the engine until it emits a view-carrying message.
func tickUntilShuffle(t *testing.T, e core.Engine) *wire.Message {
	t.Helper()
	now := int64(0)
	for i := 0; i < 20; i++ {
		for _, s := range e.Tick(now) {
			if s.Msg.Kind == wire.KindRequest || s.Msg.Kind == wire.KindResponse {
				return s.Msg
			}
		}
		now += 5000
	}
	t.Fatal("engine never emitted a shuffle")
	return nil
}

func TestStrategyParseRoundTrip(t *testing.T) {
	for _, s := range []Strategy{None, PoisonView, LyingRVP, SelectiveDrop, FreeRide} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v: got %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("eclipse"); err == nil {
		t.Error("unknown strategy parsed without error")
	}
}

func TestKindMask(t *testing.T) {
	var all KindMask
	for _, k := range []wire.Kind{wire.KindRequest, wire.KindResponse, wire.KindOpenHole, wire.KindPing, wire.KindPong} {
		if !all.Has(k) {
			t.Errorf("zero mask should select %v", k)
		}
	}
	m := MaskOf(wire.KindRequest, wire.KindPong)
	if !m.Has(wire.KindRequest) || !m.Has(wire.KindPong) || m.Has(wire.KindResponse) {
		t.Errorf("MaskOf(request, pong) selects wrong kinds: %b", m)
	}
	parsed, err := ParseKinds([]string{"request", "pong"})
	if err != nil || parsed != m {
		t.Errorf("ParseKinds mismatch: %b vs %b, %v", parsed, m, err)
	}
	if _, err := ParseKinds([]string{"shuffle"}); err == nil {
		t.Error("unknown kind parsed without error")
	}
}

// TestWrapNoneIdentity pins the zero-overhead contract: a None wrapper is no
// wrapper at all — the exact inner engine comes back, nothing is allocated.
func TestWrapNoneIdentity(t *testing.T) {
	inner := honest(1, 1)
	if got := Wrap(inner, Config{Strategy: None}, 7); got != inner {
		t.Fatalf("Wrap with None returned %T, want the inner engine itself", got)
	}
	if got := Unwrap(inner); got != inner {
		t.Fatalf("Unwrap of an unwrapped engine returned %T", got)
	}
}

func TestUnwrapSeesThroughWrapper(t *testing.T) {
	inner := honest(1, 1)
	w := Wrap(inner, Config{Strategy: FreeRide}, 7)
	if w == inner {
		t.Fatal("FreeRide wrap returned the inner engine")
	}
	if got := Unwrap(w); got != inner {
		t.Fatalf("Unwrap returned %T, want the inner engine", got)
	}
}

// TestPoisonViewStuffsColluders: every outgoing shuffle keeps the honest
// self-first prefix and shape, but every other entry is a distinct colluder
// at age zero.
func TestPoisonViewStuffsColluders(t *testing.T) {
	cs := colluders(50, 51, 52, 53, 54, 55, 56, 57, 58, 59)
	inner := honest(1, 1)
	w := Wrap(inner, Config{Strategy: PoisonView, Colluders: cs}, 7)
	for round := 0; round < 5; round++ {
		m := tickUntilShuffle(t, w)
		if len(m.Entries) == 0 || m.Entries[0].Desc.ID != inner.Self().ID {
			t.Fatalf("poisoned buffer lost the self prefix: %+v", m.Entries)
		}
		if len(m.Entries) == 1 {
			t.Fatal("poisoned buffer carries no colluders")
		}
		seen := map[ident.NodeID]bool{}
		for _, ent := range m.Entries[1:] {
			if !cs.Contains(ent.Desc.ID) {
				t.Fatalf("non-colluder %d in poisoned buffer", ent.Desc.ID)
			}
			if ent.Desc.Age != 0 {
				t.Fatalf("colluder %d shipped at age %d, want forever-young 0", ent.Desc.ID, ent.Desc.Age)
			}
			if seen[ent.Desc.ID] {
				t.Fatalf("colluder %d repeated in one buffer", ent.Desc.ID)
			}
			seen[ent.Desc.ID] = true
		}
	}
}

// TestFreeRideStripsBuffer: a free-rider's shuffles carry only its own
// descriptor — it pulls but contributes nothing.
func TestFreeRideStripsBuffer(t *testing.T) {
	inner := honest(1, 1)
	w := Wrap(inner, Config{Strategy: FreeRide}, 7)
	m := tickUntilShuffle(t, w)
	if len(m.Entries) != 1 || m.Entries[0].Desc.ID != inner.Self().ID {
		t.Fatalf("free-ride buffer should be exactly [self], got %+v", m.Entries)
	}
}

// TestLyingRVPRefusesRelays: datagrams for other peers vanish (and are
// counted); traffic addressed to the liar itself is served honestly.
func TestLyingRVPRefusesRelays(t *testing.T) {
	inner := honest(1, 1)
	w := Wrap(inner, Config{Strategy: LyingRVP}, 7)
	from := ident.Endpoint{IP: 0x0a000063, Port: 9000}

	relay := &wire.Message{Kind: wire.KindPing, Src: desc(3, ident.RestrictedCone), Dst: desc(9, ident.RestrictedCone), Via: desc(3, ident.RestrictedCone)}
	if outs := w.Receive(0, from, relay); outs != nil {
		t.Fatalf("lying RVP acted on a relay: %+v", outs)
	}
	if w.Stats().RelayDenied != 1 {
		t.Fatalf("RelayDenied = %d, want 1", w.Stats().RelayDenied)
	}

	direct := &wire.Message{Kind: wire.KindRequest, Src: desc(3, ident.RestrictedCone), Dst: inner.Self(), Via: desc(3, ident.RestrictedCone)}
	direct.Entries = append(direct.Entries, wire.ViewEntry{Desc: desc(3, ident.RestrictedCone)})
	if outs := w.Receive(0, from, direct); len(outs) == 0 {
		t.Fatal("lying RVP refused traffic addressed to itself")
	}
}

func TestSelectiveDropFilters(t *testing.T) {
	from := ident.Endpoint{IP: 0x0a000063, Port: 9000}
	ping := func(src, dst uint64) *wire.Message {
		return &wire.Message{Kind: wire.KindPing, Src: desc(src, ident.Public), Dst: desc(dst, ident.Public)}
	}

	// Kind filter: drop pings only, requests pass.
	w := Wrap(honest(1, 1), Config{Strategy: SelectiveDrop, DropKinds: MaskOf(wire.KindPing)}, 7)
	w.Receive(0, from, ping(3, 1))
	if w.Stats().AdversaryDrops != 1 {
		t.Fatalf("kind-filtered ping not dropped: %d", w.Stats().AdversaryDrops)
	}
	req := &wire.Message{Kind: wire.KindRequest, Src: desc(3, ident.Public), Dst: desc(1, ident.Public)}
	req.Entries = append(req.Entries, wire.ViewEntry{Desc: desc(3, ident.Public)})
	if outs := w.Receive(0, from, req); len(outs) == 0 {
		t.Fatal("request dropped despite ping-only mask")
	}

	// Victim filter: only traffic from/to the victim is swallowed.
	w = Wrap(honest(1, 2), Config{Strategy: SelectiveDrop, Victims: map[ident.NodeID]bool{9: true}}, 7)
	w.Receive(0, from, ping(9, 1)) // victim as source: dropped
	w.Receive(0, from, ping(3, 9)) // victim as destination: dropped
	w.Receive(0, from, ping(3, 1)) // uninvolved: passes
	if got := w.Stats().AdversaryDrops; got != 2 {
		t.Fatalf("victim filter dropped %d, want 2", got)
	}
}

// TestActivationGate: before ActiveAt the wrapper is a pass-through; from
// ActiveAt on, the attack mounts.
func TestActivationGate(t *testing.T) {
	cs := colluders(50, 51, 52)
	inner := honest(1, 1)
	w := Wrap(inner, Config{Strategy: PoisonView, ActiveAt: 10_000, Colluders: cs}, 7)
	for _, s := range w.Tick(0) {
		for _, ent := range s.Msg.Entries {
			if cs.Contains(ent.Desc.ID) {
				t.Fatal("sleeper poisoned a shuffle before activation")
			}
		}
	}
	poisoned := false
	for _, s := range w.Tick(10_000) {
		for _, ent := range s.Msg.Entries {
			poisoned = poisoned || cs.Contains(ent.Desc.ID)
		}
	}
	if !poisoned {
		t.Fatal("no colluders in shuffles after activation")
	}
}

// TestWrapperDeterminism: two identically seeded wrappers over identically
// seeded inners emit identical messages — the wrapper adds no randomness
// beyond its private stream.
func TestWrapperDeterminism(t *testing.T) {
	cs := colluders(50, 51, 52, 53, 54)
	run := func() [][]wire.ViewEntry {
		w := Wrap(honest(1, 3), Config{Strategy: PoisonView, Colluders: cs}, 7)
		var log [][]wire.ViewEntry
		for i := 0; i < 10; i++ {
			for _, s := range w.Tick(int64(i) * 5000) {
				log = append(log, append([]wire.ViewEntry(nil), s.Msg.Entries...))
			}
		}
		return log
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("identically seeded poisoners diverged")
	}
}

func TestColluderSet(t *testing.T) {
	cs := NewColluderSet()
	d := desc(5, ident.RestrictedCone)
	d.Age = 42
	cs.Add(d, 90_000)
	cs.Add(d, 90_000) // duplicate: no-op
	if cs.Len() != 1 {
		t.Fatalf("Len = %d after duplicate Add, want 1", cs.Len())
	}
	if !cs.Contains(5) || cs.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if cs.entries[0].Desc.Age != 0 {
		t.Fatalf("colluder stored at age %d, want forever-young 0", cs.entries[0].Desc.Age)
	}
	var nilSet *ColluderSet
	if nilSet.Contains(1) || nilSet.Len() != 0 {
		t.Fatal("nil ColluderSet not inert")
	}
}
