package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	nylon "repro"
	"repro/internal/ident"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/view"
	"repro/internal/wire"
)

const (
	// livePeers is the synthetic public population the client speaks for.
	livePeers = 4000
	// liveEntries is the size of a request's view buffer: the sender itself
	// plus half a 15-entry view, what a real peer ships.
	liveEntries = 8
	// segmentShuffles is one repeat: a fixed number of closed-loop requests,
	// so run_wall_s measures the system and not the clock.
	segmentShuffles = 50_000
	// warmupShuffles run in set-up, before the first timed segment.
	warmupShuffles = 20_000
	// liveTimeout is how long the client waits before a request counts as
	// failed.
	liveTimeout = 100 * time.Millisecond
	// pollEvery is how often the client loop offers the host reference a
	// slice: every few milliseconds at 20 us a shuffle.
	pollEvery = 256
	// spanEvery samples one request in this many into the span file.
	spanEvery = 64
)

// liveInputs are the generated requests: one pre-encoded datagram per
// synthetic peer, so the load generator's own marshalling stays out of the
// round trip.
type liveInputs struct {
	ids  []ident.NodeID
	reqs [][]byte
	boot []view.Descriptor
}

const liveNodeID = ident.NodeID(1)

func makeLiveInputs(seed int64, node ident.Endpoint) (liveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	peers := make([]view.Descriptor, livePeers)
	seen := map[ident.NodeID]bool{liveNodeID: true}
	for i := range peers {
		id := ident.NodeID(1_000_000 + rng.Int63n(1<<40))
		for seen[id] {
			id++
		}
		seen[id] = true
		peers[i] = view.Descriptor{
			ID:    id,
			Addr:  ident.Endpoint{IP: ident.IP(0x0a000000 + uint32(i)), Port: 9000},
			Class: ident.Public,
		}
	}
	in := liveInputs{boot: append([]view.Descriptor(nil), peers[:15]...)}
	dst := view.Descriptor{ID: liveNodeID, Addr: node, Class: ident.Public}
	for i, p := range peers {
		msg := &wire.Message{Kind: wire.KindRequest, Src: p, Dst: dst, Via: p}
		msg.Entries = append(msg.Entries, wire.ViewEntry{Desc: p})
		for len(msg.Entries) < liveEntries {
			d := peers[rng.Intn(livePeers)]
			d.Age = uint32(rng.Intn(10))
			if d.ID != p.ID {
				msg.Entries = append(msg.Entries, wire.ViewEntry{Desc: d})
			}
		}
		data, err := msg.Marshal()
		if err != nil {
			return liveInputs{}, fmt.Errorf("request %d: %w", i, err)
		}
		in.ids = append(in.ids, p.ID)
		in.reqs = append(in.reqs, data)
	}
	return in, nil
}

// loopResult is what one closed-loop segment measured.
type loopResult struct {
	usage
	answered int
	failures []string
	rttUs    []float64
}

// closedLoop sends count requests to the server, one at a time: the next
// leaves only after the previous reply was checked or timed out (one client,
// closed loop). check validates reply i and reports a stale datagram (the
// late answer to a request that already timed out) by returning stale.
func closedLoop(client transport.Transport, to ident.Endpoint, reqs [][]byte, count int,
	check func(i int, data []byte) (stale bool, err error), spans *spanRecorder, parent int) loopResult {
	res := loopResult{rttUs: make([]float64, 0, count)}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	m := startMeter()
	for n := 0; n < count; n++ {
		i := n % len(reqs)
		if n%pollEvery == 0 {
			host.poll() // between two requests: never inside a round trip
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(liveTimeout)
		start := time.Now()
		if err := client.Send(to, reqs[i]); err != nil {
			res.failures = append(res.failures, fmt.Sprintf("request %d: send: %v", n, err))
			continue
		}
		sent := time.Now()
	wait:
		for {
			select {
			case pkt, ok := <-client.Packets():
				if !ok {
					res.failures = append(res.failures, fmt.Sprintf("request %d: client socket closed", n))
					res.usage = m.stop()
					return res
				}
				stale, err := check(i, pkt.Data)
				if stale {
					continue
				}
				if err != nil {
					res.failures = append(res.failures, fmt.Sprintf("request %d: %v", n, err))
					break wait
				}
				done := time.Now()
				res.answered++
				res.rttUs = append(res.rttUs, float64(done.Sub(start).Nanoseconds())/1e3)
				if spans != nil && n%spanEvery == 0 {
					spans.record("client.send", parent, 0, start, sent)
					spans.record("client.recv", parent, 0, sent, done)
				}
				break wait
			case <-timer.C:
				res.failures = append(res.failures, fmt.Sprintf("request %d: no reply within %v", n, liveTimeout))
				break wait
			}
		}
	}
	res.usage = m.stop()
	return res
}

// probedTransport decorates the node's socket in the traced pass: it stamps
// every packet handed to the node and every datagram the node sends, which
// gives the node's turnaround and the cost of the socket send from outside
// the node.
type probedTransport struct {
	transport.Transport
	out    chan transport.Packet
	spans  *spanRecorder
	parent int

	mu           sync.Mutex
	handed       time.Time // when the latest packet was handed to the node
	packets      int
	turnaroundUs []float64
	sendNs       []float64
}

func newProbedTransport(inner transport.Transport, spans *spanRecorder) *probedTransport {
	// Buffered like the socket's own queue (transport.ListenUDP uses 256).
	p := &probedTransport{Transport: inner, out: make(chan transport.Packet, 256), spans: spans, parent: -1}
	go func() {
		defer close(p.out)
		for pkt := range inner.Packets() {
			p.mu.Lock()
			p.handed = time.Now()
			p.mu.Unlock()
			p.out <- pkt
		}
	}()
	return p
}

func (p *probedTransport) Packets() <-chan transport.Packet { return p.out }

func (p *probedTransport) Send(to ident.Endpoint, data []byte) error {
	start := time.Now()
	err := p.Transport.Send(to, data)
	end := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.packets++
	p.turnaroundUs = append(p.turnaroundUs, float64(start.Sub(p.handed).Nanoseconds())/1e3)
	p.sendNs = append(p.sendNs, float64(end.Sub(start).Nanoseconds()))
	if p.packets%spanEvery == 0 {
		p.spans.record("node.turnaround", p.parent, 1, p.handed, start)
		p.spans.record("transport.Send", p.parent, 1, start, end)
	}
	return err
}

// liveRig is one node under test and the client socket that loads it.
type liveRig struct {
	node   *nylon.Node
	client transport.Transport
	probe  *probedTransport // nil on the untraced pass
	sw     *transport.Switch
	in     liveInputs
	to     ident.Endpoint
}

// newLiveRig starts a public nylon.Node whose period is an hour — it never
// initiates, it only answers — and a client socket. overMem swaps the two
// UDP sockets for an in-memory switch.
func newLiveRig(seed int64, overMem bool, spans *spanRecorder) (*liveRig, error) {
	r := &liveRig{}
	var nodeTr transport.Transport
	if overMem {
		r.sw = transport.NewSwitch(0)
		nodeTr, r.client = r.sw.Attach(), r.sw.Attach()
	} else {
		n, err := nylon.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c, err := nylon.ListenUDP("127.0.0.1:0")
		if err != nil {
			n.Close()
			return nil, err
		}
		nodeTr, r.client = n, c
	}
	r.to = nodeTr.LocalAddr()
	var err error
	if r.in, err = makeLiveInputs(seed, r.to); err != nil {
		nodeTr.Close()
		r.client.Close()
		return nil, err
	}
	if spans != nil {
		r.probe = newProbedTransport(nodeTr, spans)
		nodeTr = r.probe
	}
	r.node, err = nylon.NewNode(nylon.Config{
		ID: liveNodeID, Transport: nodeTr, Advertise: r.to, NAT: nylon.Public,
		Bootstrap: r.in.boot, Period: time.Hour, Seed: seed,
	})
	if err != nil {
		nodeTr.Close()
		r.client.Close()
		return nil, err
	}
	r.node.Start()
	return r, nil
}

func (r *liveRig) close() {
	r.node.Close() // closes the node's transport too
	r.client.Close()
	if r.sw != nil {
		r.sw.Close()
	}
}

// segment runs count closed-loop shuffles against the node.
func (r *liveRig) segment(count int, spans *spanRecorder, parent int) loopResult {
	if r.probe != nil {
		r.probe.mu.Lock()
		r.probe.parent = parent
		r.probe.mu.Unlock()
	}
	return closedLoop(r.client, r.to, r.in.reqs, count, func(i int, data []byte) (bool, error) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return false, fmt.Errorf("reply does not decode: %w", err)
		}
		if msg.Kind != wire.KindResponse {
			return false, fmt.Errorf("reply is a %v, want RESPONSE", msg.Kind)
		}
		return msg.Dst.ID != r.in.ids[i], nil
	}, spans, parent)
}

// liveInstance repeats one segment against a long-lived node.
type liveInstance struct {
	seed int64
	rig  *liveRig
}

func setupLive(e *env) (instance, error) {
	rig, err := newLiveRig(e.seed, false, nil)
	if err != nil {
		return nil, err
	}
	if warm := rig.segment(warmupShuffles, nil, -1); len(warm.failures) > 0 {
		rig.close()
		return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
	}
	return &liveInstance{seed: e.seed, rig: rig}, nil
}

func (l *liveInstance) close() { l.rig.close() }

func (l *liveInstance) repeat(spans *spanRecorder, parent int) sample {
	return liveSample(l.rig.segment(segmentShuffles, spans, parent))
}

// liveSample turns a segment into the common sample shape. An event is one
// datagram through the node's socket: each answered shuffle is two.
func liveSample(res loopResult) sample {
	out := sample{usage: res.usage, peers: livePeers, attempted: segmentShuffles, failures: res.failures, events: uint64(2 * res.answered)}
	if res.answered == 0 {
		out.events = 1
		return out
	}
	out.extra = map[string]float64{
		"shuffles_per_s":     float64(res.answered) / res.ref(res.Wall),
		"rtt_us_p50":         median(res.rttUs) / res.Host,
		"cpu_us_per_shuffle": 1e6 * res.ref(res.CPU) / float64(res.answered),
		"live.rtt_us_p99":    stats.Quantile(res.rttUs, 0.99),
	}
	return out
}

// traced runs three more rigs: the node behind a probed socket (turnaround,
// send cost, sampled spans), a bare echo goroutine on the same kind of
// socket (the round-trip floor no node change can beat), and the node over
// the in-memory switch (the node's cost without the kernel's UDP path).
func (l *liveInstance) traced(e *env, spans *spanRecorder, root int, rep *workloadReport) {
	rep.note("network", "loopback (UDP on 127.0.0.1, one client, closed loop)")
	rep.note("rtt_samples", "%d per segment", segmentShuffles)

	probed, err := newLiveRig(l.seed, false, spans)
	if err != nil {
		rep.Attempted++
		rep.fail("probed rig: %v", err)
		return
	}
	probed.segment(warmupShuffles, nil, -1)
	s := tracedRepeat(func(sp *spanRecorder, parent int) sample {
		return liveSample(probed.segment(segmentShuffles, sp, parent))
	}, spans, root, rep)
	p := probed.probe
	p.mu.Lock()
	turnaround, sendNs := p.turnaroundUs[warmupShuffles:], p.sendNs[warmupShuffles:]
	turnaroundP50 := median(turnaround)
	rep.add("node.turnaround_us_p50", turnaroundP50)
	rep.add("node.turnaround_us_p99", stats.Quantile(turnaround, 0.99))
	rep.add("transport.udp_send_ns", median(sendNs))
	p.mu.Unlock()
	probed.close()

	id := spans.begin("udp echo floor", root)
	floor, err := echoFloor(probed.in.reqs)
	spans.end(id)
	rep.Attempted++
	if err != nil {
		rep.fail("echo floor: %v", err)
		return
	}
	rep.add("transport.udp_rtt_floor_us_p50", floor)

	id = spans.begin("node over transport.Switch", root)
	mem, err := newLiveRig(l.seed, true, nil)
	if err == nil {
		mem.segment(warmupShuffles, nil, -1)
		res := mem.segment(segmentShuffles, nil, -1)
		mem.close()
		rep.Attempted++
		for _, f := range res.failures {
			rep.fail("in-memory rig: %s", f)
		}
		rep.add("transport.mem_rtt_us_p50", median(res.rttUs))
	}
	spans.end(id)

	rtt := s.extra["rtt_us_p50"]
	rep.add("model.measured_ns", rtt*1e3)
	rep.modelIn = map[string]float64{"floor_us": floor, "turnaround_us": turnaroundP50}
}

// echoFloor measures the closed loop against a goroutine that sends every
// datagram straight back: two UDP sockets and the scheduler, no node.
func echoFloor(reqs [][]byte) (float64, error) {
	server, err := nylon.ListenUDP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	client, err := nylon.ListenUDP("127.0.0.1:0")
	if err != nil {
		server.Close()
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pkt := range server.Packets() {
			_ = server.Send(pkt.From, pkt.Data) // best effort, like the node's own sends
		}
	}()
	echo := func(i int, data []byte) (bool, error) { return !bytes.Equal(data, reqs[i]), nil }
	closedLoop(client, server.LocalAddr(), reqs, warmupShuffles, echo, nil, -1)
	res := closedLoop(client, server.LocalAddr(), reqs, segmentShuffles, echo, nil, -1)
	server.Close()
	client.Close()
	<-done
	if len(res.failures) > 0 {
		return 0, fmt.Errorf("%d of %d echoes failed: %s", len(res.failures), segmentShuffles, res.failures[0])
	}
	return median(res.rttUs), nil
}

var liveDef = workloadDef{
	name: wlLive,
	// One client in a closed loop is sequential: request, answer, request.
	// A second P adds nothing but cross-thread wake-ups, which made the same
	// binary read 0.9 s or 2.4 s per segment from one run to the next; on one
	// P it is both faster and steady.
	procs: 1,
	why:   "Real UDP on 127.0.0.1 against one nylon.Node: the only workload through node.go, transport, wire.Unmarshal of foreign bytes and core.Nylon.Receive under wall-clock time; every simulator layer bypassed",
	setup: setupLive,
}
