package core

import (
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// ARRG is the reachable-peer-cache baseline after Drost et al., "ARRG:
// real-world gossiping" (HPDC 2007) — the only prior gossip work addressing
// NATs that the paper cites [6]. It behaves like the Generic engine but keeps
// a bounded cache of peers it recently exchanged datagrams with (whose NAT
// rules toward it are therefore likely still alive). When a shuffle gets no
// answer, the next round retries against a random cache member instead of
// only trusting the view.
//
// The paper's §1 argues this "cannot ensure that the network will remain
// connected"; the A2 ablation benchmark quantifies that claim.
type ARRG struct {
	gossip
	cacheSize int
	// cache holds recently-responsive peers with their observed endpoints,
	// most recent last.
	cache []view.Descriptor
}

var _ Engine = (*ARRG)(nil)

// NewARRG builds the engine. cacheSize bounds the reachable-peer cache; it
// panics if not positive.
func NewARRG(cfg Config, cacheSize int) *ARRG {
	g := newGossip(cfg)
	if cacheSize <= 0 {
		panic("core: ARRG cacheSize must be positive")
	}
	return &ARRG{gossip: g, cacheSize: cacheSize}
}

// cacheAdd moves d to the most-recent end of the cache, evicting the oldest
// member beyond cacheSize.
func (a *ARRG) cacheAdd(d view.Descriptor) {
	if d.ID == a.cfg.Self.ID || d.ID.IsNil() {
		return
	}
	for i := range a.cache {
		if a.cache[i].ID == d.ID {
			a.cache = append(a.cache[:i], a.cache[i+1:]...)
			break
		}
	}
	a.cache = append(a.cache, d)
	if len(a.cache) > a.cacheSize {
		// Shift down in place: reslicing from [1:] would walk the slice off
		// its backing array and make append reallocate every cacheSize adds.
		a.cache = a.cache[:copy(a.cache, a.cache[1:])]
	}
}

// Tick implements Engine. If the previous round's shuffle went unanswered,
// the target is evicted (ARRG always does — detecting unreachable peers is
// its point) and this round additionally retries against a random cache
// member.
func (a *ARRG) Tick(now int64) []Send {
	defer a.view.IncreaseAge()
	out := a.sh.out[:0]
	if a.expire(true) && len(a.cache) > 0 {
		a.stats.CacheFallbacks++
		fallback := a.cache[a.cfg.RNG.Intn(len(a.cache))]
		out = append(out, toPeer(fallback, a.request(fallback)))
	}
	if target, ok := a.pick(); ok {
		out = append(out, toPeer(target, a.request(target)))
	}
	a.sh.out = out
	return out
}

// Receive implements Engine.
func (a *ARRG) Receive(now int64, from ident.Endpoint, msg *wire.Message) []Send {
	if msg.Kind == wire.KindRequest || msg.Kind == wire.KindResponse {
		// The datagram proves its sender currently reachable: remember the
		// observed endpoint, which its NAT will keep admitting for a while.
		observed := msg.Src
		observed.Addr = from
		a.cacheAdd(observed)
	}
	return a.exchange(from, msg)
}
