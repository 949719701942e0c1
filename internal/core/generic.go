package core

import (
	"repro/internal/ident"
	"repro/internal/wire"
)

// Generic is the NAT-oblivious gossip peer-sampling protocol of Fig. 1 of the
// paper, configurable along the selection, propagation and merging
// dimensions: the shared gossip core and nothing else. It addresses every
// message to the target's advertised endpoint and has no traversal machinery:
// NAT devices silently eat its datagrams, wasting the round and leaving stale
// references behind — with no-reply eviction on, the resulting view shrinkage
// is precisely what partitions the overlay in the paper's Fig. 2.
type Generic struct {
	gossip
}

var _ Engine = (*Generic)(nil)

// NewGeneric builds a baseline engine. It panics on an invalid Config.
func NewGeneric(cfg Config) *Generic {
	return &Generic{newGossip(cfg)}
}

// Tick implements Engine: one shuffling period (Fig. 1, lines 1-7).
func (g *Generic) Tick(now int64) []Send {
	g.expire(g.cfg.EvictUnanswered)
	// Ages increase once per period whether or not a target exists, so
	// isolated peers do not freeze their view's age structure.
	defer g.view.IncreaseAge()
	target, ok := g.pick()
	if !ok {
		return nil
	}
	return g.one(toPeer(target, g.request(target)))
}

// Receive implements Engine (Fig. 1, lines 8-12).
func (g *Generic) Receive(now int64, from ident.Endpoint, msg *wire.Message) []Send {
	return g.exchange(from, msg)
}
