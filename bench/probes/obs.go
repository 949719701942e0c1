package probes

import (
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/view"
)

// obsProbe times the two hooks an observed run adds to its hot paths: a
// per-shard counter add (one per datagram) and a view-mutation health hook
// (one per view entry added or removed).
func obsProbe() ([]Metric, error) {
	const shards = 8
	reg := obs.NewRegistry(shards)
	c := reg.Counter("bench_probe_total", "probe counter")
	add := nsPerOp(64, func() {
		for i := 0; i < 64; i++ {
			c.Add(i%shards, 1)
		}
	})

	const peers = 10_000
	h := obs.NewHealth(shards, peers)
	for id := 1; id <= peers; id++ {
		h.AddPeer(ident.NodeID(id))
	}
	o := h.Observer(0)
	hook := nsPerOp(64, func() {
		for i := 0; i < 32; i++ {
			d := view.Descriptor{ID: ident.NodeID(1 + (i*331)%peers)}
			o.ViewEntryAdded(1, d)
			o.ViewEntryRemoved(1, d)
		}
	})
	return []Metric{
		ns("obs.counter_add_ns", add),
		ns("obs.health_hook_ns", hook),
	}, nil
}
