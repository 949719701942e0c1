package probes

import (
	"math/rand"

	"repro/internal/ident"
	"repro/internal/view"
)

// viewProbe times one full shuffle on the hot-path API at the paper's view
// size (15 entries, an 8-descriptor buffer each way, healer merge) and the
// target selection that starts it. The exchange must not allocate: the repo
// pins that in its own tests, and the probe reports the count.
func viewProbe() ([]Metric, error) {
	rng := rand.New(rand.NewSource(1))
	v := view.New(1, 15)
	for i := 2; i < 17; i++ {
		v.Add(view.Descriptor{ID: ident.NodeID(i), Age: uint32(i)})
	}
	recv := make([]view.Descriptor, 8)
	for i := range recv {
		recv[i] = view.Descriptor{ID: ident.NodeID(100 + i), Age: uint32(i)}
	}
	var sent []view.Descriptor
	exchange := func() {
		sent = v.PrepareExchangeInto(view.MergeHealer, rng, sent[:0])
		v.ApplyExchange(view.MergeHealer, recv, sent, rng)
	}
	sink := 0
	selectNs := nsPerOp(64, func() {
		for i := 0; i < 64; i++ {
			if d, ok := v.Select(view.SelectRand, rng); ok {
				sink += int(d.Age)
			}
		}
	})
	if sink < 0 {
		panic("unreachable")
	}
	return []Metric{
		ns("view.exchange_ns", nsPerOp(1, exchange)),
		ns("view.select_ns", selectNs),
		count("view.exchange_allocs", allocsPerOp(1000, exchange)),
	}, nil
}
