package probes

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/view"
	"repro/internal/wire"
)

// coreProbe drives one warm core.Nylon engine — a port-restricted peer with
// a full view and live routes — through the four calls a host makes, with
// the simulator's single-owner message pool so the message life cycle costs
// what it costs in a run.
func coreProbe() ([]Metric, error) {
	pool := &wire.Pool{}
	self := view.Descriptor{ID: 1, Addr: ident.Endpoint{IP: 0x0a000001, Port: 1024}, Class: ident.PortRestrictedCone}
	engine := func(evict bool) *core.Nylon {
		return core.NewNylon(core.Config{
			Self: self, ViewSize: 15, Merge: view.MergeHealer, PushPull: true,
			HoleTimeout: 90_000, LatencyBound: 500,
			RNG: rand.New(rand.NewSource(1)), EvictUnanswered: evict, Msgs: pool,
		})
	}
	peer := func(i int, class ident.NATClass) view.Descriptor {
		return view.Descriptor{ID: ident.NodeID(100 + i), Addr: ident.Endpoint{IP: ident.IP(0x0a000100 + uint32(i)), Port: 9000}, Class: class}
	}
	var seeds []view.Descriptor
	for i := 0; i < 15; i++ {
		seeds = append(seeds, peer(i, ident.RestrictedCone))
	}
	const senders = 64
	var requests, responses, relayed []*wire.Message
	for i := 0; i < senders; i++ {
		p := peer(1000+i, ident.Public)
		requests = append(requests, shuffleMessage(wire.KindRequest, p, self))
		responses = append(responses, shuffleMessage(wire.KindResponse, p, self))
		// A REQUEST for one of the seeds, handed to us as its RVP.
		relayed = append(relayed, shuffleMessage(wire.KindRequest, p, seeds[i%len(seeds)]))
	}
	// The clock stands still: the routes installed at bootstrap stay live
	// for the whole probe, as they do within one shuffling period of a run.
	const now = 1000
	consume := func(sends []core.Send) int {
		for _, s := range sends {
			pool.Put(s.Msg)
		}
		return len(sends)
	}

	// Tick on an engine that keeps its targets: nobody answers a probe, and
	// eviction would empty the view within 15 ticks.
	ticker := engine(false)
	ticker.Bootstrap(0, seeds)
	sent := 0
	tick := nsPerOp(1, func() { sent += consume(ticker.Tick(now)) })
	if s := ticker.Stats(); sent == 0 || s.NoRoute > 0 {
		return nil, fmt.Errorf("tick probe sent %d datagrams with %d route misses: it is not timing a shuffle", sent, s.NoRoute)
	}

	eng := engine(true)
	eng.Bootstrap(0, seeds)
	receive := func(msgs []*wire.Message) func() {
		i := 0
		return func() {
			m := msgs[i%senders]
			i++
			consume(eng.Receive(now, m.Src.Addr, m))
		}
	}
	request := receive(requests)
	out := []Metric{
		ns("core.tick_ns", tick),
		ns("core.receive_request_ns", nsPerOp(1, request)),
		ns("core.receive_response_ns", nsPerOp(1, receive(responses))),
		ns("core.forward_ns", nsPerOp(1, receive(relayed))),
		count("core.receive_allocs", allocsPerOp(1000, request)),
	}
	if s := eng.Stats(); s.Forwarded == 0 || s.NoRoute > 0 {
		return nil, fmt.Errorf("forward probe relayed %d datagrams with %d route misses: its routes died", s.Forwarded, s.NoRoute)
	}
	return out, nil
}
