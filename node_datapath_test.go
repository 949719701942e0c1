package nylon

import (
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/boot"
	"repro/internal/israce"
	"repro/internal/transport"
	"repro/internal/wire"
)

// shuffleRig is one node that only answers (its period is an hour) and a
// client transport speaking for a population of synthetic public peers:
// the live datapath with nothing else running.
type shuffleRig struct {
	node    *Node
	client  Transport
	to      Endpoint
	reqs    [][]byte    // one encoded 8-entry REQUEST per synthetic peer
	ids     []NodeID    // reqs[i] comes from ids[i]
	replies chan NodeID // Dst of every RESPONSE the client's handler saw
	timeout *time.Timer // reused, so that waiting allocates nothing
}

const rigPeers = 64

// newShuffleRig wires node and client; wrap, when non-nil, decorates the
// node's transport (to hide its handler, say).
func newShuffleRig(tb testing.TB, nodeTr, clientTr transport.Handled, wrap func(Transport) Transport) *shuffleRig {
	tb.Helper()
	r := &shuffleRig{client: clientTr, to: nodeTr.LocalAddr(), replies: make(chan NodeID, 1), timeout: time.NewTimer(time.Hour)}
	self := Descriptor{ID: 1, Addr: r.to, Class: Public}
	peers := make([]Descriptor, rigPeers)
	for i := range peers {
		peers[i] = Descriptor{ID: NodeID(1000 + i), Addr: Endpoint{IP: IP(0x0a000100 + uint32(i)), Port: 9000}, Class: Public}
	}
	for i, p := range peers {
		msg := &wire.Message{Kind: wire.KindRequest, Src: p, Dst: self, Via: p}
		for j := 0; j < 8; j++ {
			d := peers[(i+j)%rigPeers]
			d.Age = uint32(j)
			msg.Entries = append(msg.Entries, wire.ViewEntry{Desc: d})
		}
		data, err := msg.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		r.reqs, r.ids = append(r.reqs, data), append(r.ids, p.ID)
	}
	// The client decodes into one message of its own, so the round trip
	// measures the node and not the load generator. A closed loop has one
	// reply in flight, which the channel's one slot holds; a flood's
	// surplus is dropped.
	var reply wire.Message
	clientTr.SetHandler(func(p Packet) {
		if err := wire.UnmarshalInto(&reply, p.Data); err == nil && reply.Kind == wire.KindResponse {
			select {
			case r.replies <- reply.Dst.ID:
			default:
			}
		}
	})
	var tr Transport = nodeTr
	if wrap != nil {
		tr = wrap(tr)
	}
	node, err := NewNode(Config{
		ID: self.ID, Transport: tr, Advertise: r.to, Bootstrap: peers[:15], Period: time.Hour, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.node = node
	node.Start()
	tb.Cleanup(func() {
		node.Close()
		clientTr.Close()
	})
	return r
}

func newMemRig(tb testing.TB, wrap func(Transport) Transport) *shuffleRig {
	sw := NewSwitch(0)
	tb.Cleanup(sw.Close)
	return newShuffleRig(tb, sw.Attach(), sw.Attach(), wrap)
}

func newUDPRig(tb testing.TB) *shuffleRig {
	nodeTr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	clientTr, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		nodeTr.Close()
		tb.Fatal(err)
	}
	return newShuffleRig(tb, nodeTr, clientTr, nil)
}

// shuffle sends request i and waits for its RESPONSE.
func (r *shuffleRig) shuffle(tb testing.TB, i int) {
	i %= len(r.reqs)
	if !r.timeout.Stop() {
		select {
		case <-r.timeout.C:
		default:
		}
	}
	r.timeout.Reset(5 * time.Second)
	if err := r.client.Send(r.to, r.reqs[i]); err != nil {
		tb.Fatal(err)
	}
	select {
	case got := <-r.replies:
		if got != r.ids[i] {
			tb.Fatalf("RESPONSE addressed to %v, want %v", got, r.ids[i])
		}
	case <-r.timeout.C:
		tb.Fatalf("request %d: no RESPONSE", i)
	}
}

// The tentpole property: a REQUEST delivered by the switch, decoded, merged,
// answered, encoded and sent back through the switch allocates nothing once
// the routing table has seen the population.
func TestHandlePacketAllocatesNothing(t *testing.T) {
	r := newMemRig(t, nil)
	for i := 0; i < 4*rigPeers; i++ {
		r.shuffle(t, i)
	}
	before := r.node.Stats().ShufflesAnswered
	const runs = 500
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r.shuffle(t, i)
		i++
	})
	if allocs != 0 && !israce.Enabled {
		t.Errorf("an answered shuffle allocates %v times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the counted ones.
	if got := r.node.Stats().ShufflesAnswered - before; got != runs+1 {
		t.Errorf("ShufflesAnswered grew by %d, want %d", got, runs+1)
	}
	r.node.mu.Lock()
	balance := r.node.msgs.Balance()
	r.node.mu.Unlock()
	if balance != 0 {
		t.Errorf("%d messages never returned to the node's pool", balance)
	}
	if malformed, full := r.node.Drops(); malformed != 0 || full != 0 {
		t.Errorf("Drops = %d malformed, %d queue-full, want none", malformed, full)
	}
}

// plainTransport hides everything but the Transport methods, as a decorator
// written against the interface does (the benchmark's probedTransport, a
// user's own transport): the node must fall back to reading Packets.
type plainTransport struct{ Transport }

func TestNodeChannelFallback(t *testing.T) {
	r := newMemRig(t, func(tr Transport) Transport { return plainTransport{tr} })
	for i := 0; i < 2*rigPeers; i++ {
		r.shuffle(t, i)
	}
	if got := r.node.Stats().ShufflesAnswered; got != 2*rigPeers {
		t.Errorf("ShufflesAnswered = %d, want %d", got, 2*rigPeers)
	}
}

// hostileDatagrams are what an open UDP port receives besides the protocol:
// none may reach the engine, each is counted.
func hostileDatagrams(valid []byte) [][]byte {
	punch, _ := (&boot.Message{Kind: boot.KindPunch}).Marshal()
	bootGarbage := punch[:2]
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[0] = 99
	oversized := append(append([]byte(nil), valid...), make([]byte, transport.MaxDatagram-len(valid))...)
	return [][]byte{
		valid[:20],           // truncated header
		valid[:len(valid)-1], // truncated entries
		wrongVersion,
		oversized,   // trailing bytes up to the datagram limit
		bootGarbage, // claims the introducer protocol, is not
		{},
	}
}

func TestNodeDropsCountsMalformed(t *testing.T) {
	r := newMemRig(t, nil)
	hostile := hostileDatagrams(r.reqs[0])
	for _, d := range hostile {
		if err := r.client.Send(r.to, d); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		malformed, full := r.node.Drops()
		if malformed == uint64(len(hostile)) && full == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Drops = %d malformed, %d queue-full; want %d, 0", malformed, full, len(hostile))
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.node.Stats(); st != (Stats{}) {
		t.Errorf("hostile datagrams reached the engine: %+v", st)
	}
	r.shuffle(t, 0) // and the node still serves
}

// Sample draws from a per-node stream derived from Config.Seed: two nodes
// with one seed and one view sample identically, successive samples differ,
// and sampling leaves the view — the engine's state — alone.
func TestNodeSampleStream(t *testing.T) {
	a, b := newMemRig(t, nil).node, newMemRig(t, nil).node
	view := a.View()
	if len(view) != 15 {
		t.Fatalf("view holds %d entries, want the 15 seeds", len(view))
	}
	same := slices.Equal[[]Descriptor]
	var first []Descriptor
	repeats := 0
	for i := 0; i < 8; i++ {
		sa, sb := a.Sample(15), b.Sample(15)
		if !same(sa, sb) {
			t.Fatalf("draw %d: nodes with one seed sampled differently:\n%v\n%v", i, sa, sb)
		}
		if i == 0 {
			first = sa
		} else if same(sa, first) {
			repeats++
		}
	}
	if repeats > 0 {
		t.Errorf("%d of 7 later samples repeat the first order", repeats)
	}
	if !same(a.View(), view) {
		t.Error("Sample reordered the view")
	}
}

// Close races a flood of valid and hostile datagrams while other goroutines
// read the node. The handler may be mid-packet when Close returns; the engine
// mutex makes that safe. Run under -race.
func TestNodeCloseRacesFlood(t *testing.T) {
	rigs := map[string]func(testing.TB) *shuffleRig{
		"mem": func(tb testing.TB) *shuffleRig { return newMemRig(tb, nil) },
		"udp": newUDPRig,
		"mem-channel": func(tb testing.TB) *shuffleRig {
			return newMemRig(tb, func(tr Transport) Transport { return plainTransport{tr} })
		},
	}
	for name, build := range rigs {
		t.Run(name, func(t *testing.T) {
			r := build(t)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			spawn := func(f func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							f()
							runtime.Gosched() // 2 Ps, 8 loops: let the socket reader in
						}
					}
				}()
			}
			hostile := hostileDatagrams(r.reqs[0])
			for g := 0; g < 2; g++ {
				i := g
				spawn(func() {
					_ = r.client.Send(r.to, r.reqs[i%len(r.reqs)]) // fails once the rig closes
					_ = r.client.Send(r.to, hostile[i%len(hostile)])
					i++
				})
			}
			if name == "udp" {
				// Larger than any transport sends: the socket truncates it.
				conn, err := net.Dial("udp4", r.to.String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				huge := make([]byte, 4*transport.MaxDatagram)
				spawn(func() { _, _ = conn.Write(huge) })
			}
			spawn(func() { _ = r.node.View() })
			spawn(func() { _ = r.node.Stats(); _, _ = r.node.Drops() })
			spawn(func() { _ = r.node.Sample(3) })

			// Close once the flood is demonstrably going through the node.
			deadline := time.Now().Add(10 * time.Second)
			for {
				answered := r.node.Stats().ShufflesAnswered
				malformed, _ := r.node.Drops()
				if answered >= 50 && malformed >= 50 {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("flood stalled: %d shuffles answered, %d hostile datagrams counted", answered, malformed)
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err := r.node.Close(); err != nil {
				t.Error("Close:", err)
			}
			time.Sleep(10 * time.Millisecond) // readers and flood keep going after Close
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkNodeShuffleMem and BenchmarkNodeShuffleUDP time one answered
// shuffle — REQUEST in, RESPONSE out — through node.go and a transport, from a
// client that itself allocates nothing: ns/op, B/op and allocs/op are the
// node's and the transport's. Over the switch every hop is a goroutine
// hand-off; over UDP it is two loopback socket crossings.
func BenchmarkNodeShuffleMem(b *testing.B) { benchNodeShuffle(b, newMemRig(b, nil)) }

func BenchmarkNodeShuffleUDP(b *testing.B) { benchNodeShuffle(b, newUDPRig(b)) }

func benchNodeShuffle(b *testing.B, r *shuffleRig) {
	for i := 0; i < 4*rigPeers; i++ {
		r.shuffle(b, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.shuffle(b, i)
	}
}
