package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ident"
	"repro/internal/israce"
	"repro/internal/view"
	"repro/internal/wire"
)

// requestFrom builds the REQUEST a public peer would send to self.
func requestFrom(src, self view.Descriptor) *wire.Message {
	return &wire.Message{Kind: wire.KindRequest, Src: src, Dst: self, Via: src,
		Entries: []wire.ViewEntry{{Desc: src.Fresh()}}}
}

// "Unanswered" only means something when an answer was expected: under
// push-only propagation no RESPONSE ever comes, so a silent period must
// neither evict the target nor (ARRG) fire a cache fallback, whatever
// EvictUnanswered says.
func TestPushOnlyNeverEvicts(t *testing.T) {
	for _, eng := range trEngines {
		t.Run(eng.name, func(t *testing.T) {
			cfg := gcfg(1, ident.Public, false)
			cfg.EvictUnanswered = true
			e := eng.build(cfg)
			e.View().Add(pubDesc(2))
			// Earlier traffic: peer 3 pushed to us, which also fills ARRG's
			// cache so that a fallback has somewhere to go.
			if out := e.Receive(0, pubDesc(3).Addr, requestFrom(pubDesc(3), e.Self())); len(out) != 0 {
				t.Fatalf("push-only REQUEST answered: %+v", out)
			}
			for tick := 1; tick <= 2; tick++ {
				starts := 0
				for _, s := range e.Tick(int64(tick) * 5000) {
					if s.Msg.Kind == wire.KindRequest || s.Msg.Kind == wire.KindOpenHole {
						starts++
					}
				}
				if starts != 1 {
					t.Errorf("tick %d started %d exchanges, want 1", tick, starts)
				}
			}
			if !e.View().Contains(2) || !e.View().Contains(3) {
				t.Errorf("a target that was never asked to answer was evicted: view %v", e.View())
			}
			if n := e.Stats().CacheFallbacks; n != 0 {
				t.Errorf("CacheFallbacks = %d, want 0", n)
			}
		})
	}
}

// The 0-alloc contract of the per-datagram path, counted in mallocs rather
// than through testing.AllocsPerRun: that one reports the truncated mean, so
// an engine that allocates once every few receives reads 0. ARRG did — its
// cache walked off its backing array — which is why it has a row here beside
// the baseline.
func TestWarmReceiveMallocsNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, eng := range trEngines[:2] { // generic, arrg
		t.Run(eng.name, func(t *testing.T) {
			pool := &wire.Pool{}
			cfg := gcfg(1, ident.Public, true)
			cfg.Msgs = pool
			e := eng.build(cfg)
			// Far more distinct senders than the cache holds, so it evicts on
			// every receive once it is full.
			reqs := make([]*wire.Message, 16)
			for i := range reqs {
				reqs[i] = requestFrom(pubDesc(uint64(10+i)), e.Self())
			}
			receive := func(n int) {
				for i := 0; i < n; i++ {
					req := reqs[i%len(reqs)]
					for _, s := range e.Receive(int64(i), req.Src.Addr, req) {
						pool.Put(s.Msg)
					}
				}
			}
			receive(4 * len(reqs))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			receive(8000)
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("8000 warm receives made %d mallocs (%d B), want 0",
					n, after.TotalAlloc-before.TotalAlloc)
			}
		})
	}
}

// The engines embed the shared core by value and add only their own fields:
// these four sizes are the simulator's alloc_bytes_per_peer, so a field that
// creeps into the core shows here before it shows in a 10k-peer run. Nylon
// holds its 80-byte routing table inline: 384 B fills the allocator's
// 384-byte size class, where a 312-byte record and a separate 80-byte table
// took 320 + 80.
func TestEngineSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are stated for 64-bit words")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Nylon", unsafe.Sizeof(Nylon{}), 384},
		{"Generic", unsafe.Sizeof(Generic{}), 272},
		{"ARRG", unsafe.Sizeof(ARRG{}), 304},
		{"StaticRVP", unsafe.Sizeof(StaticRVP{}), 336},
	} {
		if c.got > c.want {
			t.Errorf("sizeof(%s) = %d B, want at most %d", c.name, c.got, c.want)
		}
	}
}
