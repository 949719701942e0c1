package simnet

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/view"
	"repro/internal/wire"
)

// sinkEngine counts deliveries and never replies — it isolates network
// behaviour from protocol behaviour.
type sinkEngine struct {
	self     view.Descriptor
	received int
	stats    core.Stats
}

func (e *sinkEngine) Self() view.Descriptor { return e.self }
func (e *sinkEngine) View() *view.View      { return view.New(e.self.ID, 4) }
func (e *sinkEngine) Tick(int64) []core.Send {
	return nil
}
func (e *sinkEngine) Receive(int64, ident.Endpoint, *wire.Message) []core.Send {
	e.received++
	return nil
}
func (e *sinkEngine) Stats() *core.Stats { return &e.stats }

func sinkFactory() (EngineFactory, *[]*sinkEngine) {
	engines := &[]*sinkEngine{}
	return func(self view.Descriptor) core.Engine {
		e := &sinkEngine{self: self}
		*engines = append(*engines, e)
		return e
	}, engines
}

func ping(net *Network, from, to *Peer) {
	msg := net.ShardPool(from.Shard).Get()
	msg.Kind = wire.KindPing
	msg.Src, msg.Dst, msg.Via = from.Descriptor(), to.Descriptor(), from.Descriptor()
	net.Send(from, core.Send{To: to.Addr, ToID: to.ID, Msg: msg})
}

// scriptedPolicy replays fixed (delay, drop) decisions in send order.
type scriptedPolicy struct {
	delays []int64
	drops  []bool
	calls  int
}

func (p *scriptedPolicy) Transmit(int64, ident.NodeID, ident.Endpoint, ident.Endpoint, uint64) (int64, bool) {
	i := p.calls
	p.calls++
	var d int64
	var drop bool
	if i < len(p.delays) {
		d = p.delays[i]
	}
	if i < len(p.drops) {
		drop = p.drops[i]
	}
	return d, drop
}

func TestLinkPolicyLossDropsInFlight(t *testing.T) {
	sched, net := newNet()
	factory, engines := sinkFactory()
	a := net.AddPeer(1, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
	b := net.AddPeer(2, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })

	net.SetLinkPolicy(&scriptedPolicy{drops: []bool{true, false, true}})
	ping(net, a, b)
	ping(net, a, b)
	ping(net, a, b)
	sched.RunUntil(1000)

	if got := (*engines)[1].received; got != 1 {
		t.Errorf("delivered %d datagrams, want 1 (two lost)", got)
	}
	if net.Drops().LinkLost != 2 {
		t.Errorf("LinkLost = %d, want 2", net.Drops().LinkLost)
	}
	if a.MsgsSent != 3 || b.MsgsRecv != 1 {
		t.Errorf("sent/recv counters = %d/%d, want 3/1 (lost datagrams still cost the sender)", a.MsgsSent, b.MsgsRecv)
	}
}

func TestLinkPolicyJitterRoutesThroughHeap(t *testing.T) {
	sched, net := newNet()
	factory, engines := sinkFactory()
	a := net.AddPeer(1, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
	b := net.AddPeer(2, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })

	// Non-monotone delays: the barrier must hold the delayed datagrams past
	// its release horizon and hand them to the lane in key order later, or
	// the lane would panic on the regressed fire time.
	net.SetLinkPolicy(&scriptedPolicy{delays: []int64{200, 0, 40}})
	ping(net, a, b)
	ping(net, a, b)
	ping(net, a, b)

	sched.RunUntil(latency + 1)
	if got := (*engines)[1].received; got != 1 {
		t.Fatalf("at base latency: delivered %d, want only the unjittered datagram", got)
	}
	sched.RunUntil(latency + 100)
	if got := (*engines)[1].received; got != 2 {
		t.Fatalf("at +100ms: delivered %d, want 2", got)
	}
	sched.RunUntil(1000)
	if got := (*engines)[1].received; got != 3 {
		t.Fatalf("finally delivered %d, want all 3", got)
	}
	if net.Drops() != (DropStats{}) {
		t.Errorf("unexpected drops: %+v", net.Drops())
	}
}

func TestPartitionMaskDropsAcrossCut(t *testing.T) {
	sched, net := newNet()
	factory, engines := sinkFactory()
	a := net.AddPeer(1, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
	b := net.AddPeer(2, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
	c := net.AddPeer(3, ident.RestrictedCone, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })

	a.Side, b.Side, c.Side = 0, 1, 0
	net.SetPartitionActive(true)

	ping(net, a, b) // across the cut: dropped
	ping(net, c, a) // same side, natted sender: delivered
	sched.RunUntil(1000)

	if got := (*engines)[1].received; got != 0 {
		t.Errorf("cross-cut datagram delivered (%d)", got)
	}
	if got := (*engines)[0].received; got != 1 {
		t.Errorf("same-side datagram not delivered (%d)", got)
	}
	if net.Drops().Partitioned != 1 {
		t.Errorf("Partitioned = %d, want 1", net.Drops().Partitioned)
	}

	// Healing restores delivery; stale Side values are ignored.
	net.SetPartitionActive(false)
	ping(net, a, b)
	sched.RunUntil(2000)
	if got := (*engines)[1].received; got != 1 {
		t.Errorf("post-heal datagram not delivered (%d)", got)
	}
}

// TestPartitionAppliesToInFlight pins the delivery-time semantics: a
// datagram already in flight when the partition strikes is swallowed by it.
func TestPartitionAppliesToInFlight(t *testing.T) {
	sched, net := newNet()
	factory, engines := sinkFactory()
	a := net.AddPeer(1, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
	b := net.AddPeer(2, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })

	ping(net, a, b)
	b.Side = 1
	sched.Global().At(latency/2, func() { net.SetPartitionActive(true) })
	sched.RunUntil(1000)

	if got := (*engines)[1].received; got != 0 {
		t.Errorf("in-flight datagram crossed a partition that struck before delivery")
	}
	if net.Drops().Partitioned != 1 {
		t.Errorf("Partitioned = %d, want 1", net.Drops().Partitioned)
	}
}

// delayPolicy delays every datagram by a fixed number of milliseconds.
type delayPolicy int64

func (p delayPolicy) Transmit(int64, ident.NodeID, ident.Endpoint, ident.Endpoint, uint64) (int64, bool) {
	return int64(p), false
}

// TestQuiescentSendZeroAlloc locks in that the scenario hooks cost the
// nil-policy fast path nothing: steady-state send+deliver with no link
// policy and no active partition allocates zero. A policy that delays every
// datagram past the release horizon costs nothing either: once the held list
// and the barrier's sort scratch have grown, holding a datagram across
// barriers allocates nothing.
func TestQuiescentSendZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay int64
	}{
		{"no policy", 0},
		{"jittered", 75},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, net := newNet()
			factory, engines := sinkFactory()
			a := net.AddPeer(1, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
			b := net.AddPeer(2, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return factory(d) })
			if tc.delay > 0 {
				net.SetLinkPolicy(delayPolicy(tc.delay))
			}

			// Warm the inflight ring, the held list and the scheduler lane.
			for i := 0; i < 64; i++ {
				ping(net, a, b)
			}
			sched.RunUntil(sched.Now() + 1000)

			allocs := testing.AllocsPerRun(1000, func() {
				ping(net, a, b)
				sched.RunUntil(sched.Now() + latency + tc.delay)
			})
			// The ping's wire message round-trips through the pool, so the
			// whole cycle must be allocation-free.
			if allocs > 0 {
				t.Errorf("send+deliver allocates %.1f per round, want 0", allocs)
			}
			if got, want := (*engines)[1].received, 64+1001; got != want {
				t.Errorf("delivered %d datagrams, want %d", got, want)
			}
		})
	}
}

// keyEngine records the scheduler key under which each datagram reaches it.
type keyEngine struct {
	sinkEngine
	sched *sim.Scheduler
	got   []sim.Key
}

func (e *keyEngine) Receive(now int64, _ ident.Endpoint, _ *wire.Message) []core.Send {
	actor, seq := e.sched.CurrentKey()
	e.got = append(e.got, sim.Key{At: now, Actor: actor, Seq: seq})
	return nil
}

// TestFlushSchedulesInKeyOrder stages runs for one destination shard and
// requires its deliveries to fire in exactly sim.Key order, whichever way the
// barrier brought the runs together: one sorted run scheduled in place, three
// sorted runs whose keys interleave, three runs one of which a link-delayed
// datagram left out of order, and delays of one to two and a half latencies
// behind a global event that cuts one window short, so datagrams wait in the
// held list across one and two barriers. After every barrier each shard's
// scheduler holds nothing but lane events.
func TestFlushSchedulesInKeyOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		senders []ident.NodeID // shard = (id-1) % 4; the destination, peer 4, owns shard 3
		delays  []int64        // per send, in send order
		global  int64          // time of a global event, 0 for none
	}{
		{"one sorted run", []ident.NodeID{1, 5, 9}, nil, 0},
		{"sorted runs interleave", []ident.NodeID{1, 5, 2, 6, 3, 7}, nil, 0},
		{"a link delay regresses a run", []ident.NodeID{1, 5, 2, 6, 3, 7}, []int64{30, 0, 0, 20, 0, 0, 20, 0, 10, 0, 0, 0}, 0},
		{"held across barriers", []ident.NodeID{1, 5, 2, 6, 3, 7}, []int64{125, 50, 75, 100, 60, 125, 50, 90, 110, 75, 100, 60}, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kern := sim.NewSharded(4, 1, latency)
			net := NewSharded(kern, latency)
			if tc.global > 0 {
				kern.Global().At(tc.global, func() {})
			}
			kern.SetCheckpointFn(func(now int64) bool {
				for i := 0; i < kern.Shards(); i++ {
					s, lane := kern.Shard(i), 0
					s.EachLane(func(sim.Key) { lane++ })
					if s.Pending() != lane {
						t.Errorf("barrier %d: shard %d has %d events pending, %d of them lane events", now, i, s.Pending(), lane)
					}
				}
				return false
			})
			dst := &keyEngine{sched: kern.Shard(3)}
			to := net.AddPeer(4, ident.Public, holeTimeout, func(d view.Descriptor) core.Engine { return dst })
			factory, _ := sinkFactory()
			policy := &scriptedPolicy{delays: tc.delays}
			net.SetLinkPolicy(policy)

			var want []sim.Key
			for _, id := range tc.senders {
				from := net.AddPeer(id, ident.Public, holeTimeout, factory)
				for k := 0; k < 2; k++ {
					var delay int64
					if policy.calls < len(tc.delays) {
						delay = tc.delays[policy.calls]
					}
					ping(net, from, to)
					want = append(want, sim.Key{At: latency + delay, Actor: uint64(id), Seq: from.Seq})
				}
			}
			slices.SortFunc(want, sim.Key.Compare)
			kern.RunUntil(1000)

			if !slices.Equal(dst.got, want) {
				t.Errorf("deliveries fired as\n%v, want key order\n%v", dst.got, want)
			}
			if err := net.LeakCheck(); err != nil {
				t.Error(err)
			}
		})
	}
}
