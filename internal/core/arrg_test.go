package core

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

func newARRG(t *testing.T, id uint64, cacheSize int) *ARRG {
	t.Helper()
	return NewARRG(gcfg(id, ident.Public, true), cacheSize)
}

func TestARRGCacheSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewARRG with cacheSize 0 did not panic")
		}
	}()
	NewARRG(gcfg(1, ident.Public, true), 0)
}

func TestARRGCachesResponders(t *testing.T) {
	a := newARRG(t, 1, 4)
	src := pubDesc(2)
	fromEP := ident.Endpoint{IP: 99, Port: 99}
	resp := &wire.Message{Kind: wire.KindResponse, Src: src, Dst: a.Self(), Via: src}
	a.Receive(0, fromEP, resp)
	if len(a.cache) != 1 {
		t.Fatalf("cache holds %d, want 1", len(a.cache))
	}
	// The cache stores the observed endpoint, which is what stays
	// reachable.
	if got := a.cache[0].Addr; got != fromEP {
		t.Errorf("cached endpoint = %v, want observed %v", got, fromEP)
	}
}

func TestARRGCacheDedupAndBound(t *testing.T) {
	a := newARRG(t, 1, 3)
	for i := 0; i < 10; i++ {
		src := pubDesc(uint64(2 + i%4))
		req := &wire.Message{Kind: wire.KindRequest, Src: src, Dst: a.Self(), Via: src}
		a.Receive(0, src.Addr, req)
	}
	if len(a.cache) > 3 {
		t.Errorf("cache grew to %d, bound 3", len(a.cache))
	}
	seen := map[ident.NodeID]bool{}
	for _, d := range a.cache {
		if seen[d.ID] {
			t.Errorf("duplicate cache entry %v", d.ID)
		}
		seen[d.ID] = true
	}
}

func TestARRGFallbackOnSilence(t *testing.T) {
	a := newARRG(t, 1, 4)
	a.Bootstrap(0, []view.Descriptor{pubDesc(2)})
	// Cache a known-reachable peer.
	resp := &wire.Message{Kind: wire.KindResponse, Src: pubDesc(5), Dst: a.Self(), Via: pubDesc(5)}
	a.Receive(0, pubDesc(5).Addr, resp)

	// First round: regular shuffle toward n2 (no fallback yet).
	out := a.Tick(0)
	if len(out) != 1 || out[0].ToID != 2 {
		t.Fatalf("first tick = %+v", out)
	}
	// n2 never answers: second round evicts it and retries via the cache.
	out = a.Tick(5000)
	foundFallback := false
	for _, s := range out {
		if s.ToID == 5 {
			foundFallback = true
		}
		if s.ToID == 2 {
			t.Error("evicted target still gossiped with")
		}
	}
	if !foundFallback {
		t.Errorf("no cache fallback in %+v", out)
	}
	if a.View().Contains(2) {
		t.Error("silent target not evicted")
	}
	if a.Stats().CacheFallbacks != 1 {
		t.Errorf("CacheFallbacks = %d", a.Stats().CacheFallbacks)
	}
}

func TestARRGResponseClearsPending(t *testing.T) {
	a := newARRG(t, 1, 4)
	a.Bootstrap(0, []view.Descriptor{pubDesc(2)})
	a.Tick(0)
	resp := &wire.Message{Kind: wire.KindResponse, Src: pubDesc(2), Dst: a.Self(), Via: pubDesc(2)}
	a.Receive(100, pubDesc(2).Addr, resp)
	// Answered: next tick must not evict or fall back.
	a.Tick(5000)
	if !a.View().Contains(2) {
		t.Error("answered target was evicted")
	}
	if a.Stats().CacheFallbacks != 0 {
		t.Error("fallback despite answer")
	}
}

func TestARRGIgnoresForeignKinds(t *testing.T) {
	a := newARRG(t, 1, 4)
	msg := &wire.Message{Kind: wire.KindOpenHole, Src: pubDesc(2), Dst: a.Self(), Via: pubDesc(2)}
	if out := a.Receive(0, pubDesc(2).Addr, msg); len(out) != 0 {
		t.Errorf("ARRG reacted to OPEN_HOLE: %v", out)
	}
}
