package probes

import (
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/view"
	"repro/internal/wire"
)

// echoEngine answers every datagram with one datagram to its sender and does
// no protocol work: what is left is the network's forwarding path.
type echoEngine struct {
	self view.Descriptor
	view *view.View
	pool *wire.Pool
	out  []core.Send
	st   core.Stats
}

func (e *echoEngine) Self() view.Descriptor  { return e.self }
func (e *echoEngine) View() *view.View       { return e.view }
func (e *echoEngine) Stats() *core.Stats     { return &e.st }
func (e *echoEngine) Tick(int64) []core.Send { return nil }

func (e *echoEngine) Receive(_ int64, from ident.Endpoint, msg *wire.Message) []core.Send {
	reply := e.pool.Get()
	reply.Kind, reply.Src, reply.Dst, reply.Via = wire.KindPong, e.self, msg.Src, e.self
	e.out = append(e.out[:0], core.Send{To: from, ToID: msg.Src.ID, Msg: reply})
	return e.out
}

// simnetProbe measures bare forwarding: a small all-public sharded network
// whose engines only echo, every peer keeping one datagram in flight. The
// time per datagram covers Send, the barrier merge, the lane and delivery —
// no NAT, no protocol.
func simnetProbe() ([]Metric, error) {
	const (
		shards  = 8
		peers   = 512
		latency = 50
		windows = 40 // per timed call: peers x windows datagrams
	)
	kern := sim.NewSharded(shards, 1, latency)
	net := simnet.NewSharded(kern, latency)
	ps := make([]*simnet.Peer, peers)
	for i := range ps {
		id := ident.NodeID(i + 1)
		ps[i] = net.AddPeer(id, ident.Public, 0, func(self view.Descriptor) core.Engine {
			return &echoEngine{self: self, view: view.New(self.ID, 1), pool: net.ShardPool(net.ShardOf(id))}
		})
	}
	for i, p := range ps {
		to := ps[(i*7+1)%peers]
		msg := net.ShardPool(p.Shard).Get()
		msg.Kind, msg.Src, msg.Dst, msg.Via = wire.KindPing, p.Descriptor(), to.Descriptor(), p.Descriptor()
		net.Send(p, core.Send{To: to.Addr, ToID: to.ID, Msg: msg})
	}
	var end int64
	run := func() {
		end += latency * windows
		kern.RunUntil(end)
	}
	run() // reach the steady state: queues and pools at their working size
	before := kern.Processed()
	run()
	perCall := int(kern.Processed() - before)
	return []Metric{ns("simnet.deliver_ns_per_datagram", nsPerOp(perCall, run))}, nil
}
