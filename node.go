package nylon

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boot"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config configures a Node. ID, Transport and Advertise are required;
// everything else has paper defaults.
type Config struct {
	// ID is the node's unique identity. Callers assign it (e.g. from an
	// introducer or a collision-resistant random draw).
	ID NodeID
	// Transport carries the node's datagrams. The node takes ownership
	// and closes it on Close.
	Transport Transport
	// Advertise is the endpoint other peers should contact: the node's
	// own address if public, or its NAT mapping as discovered through an
	// introducer.
	Advertise Endpoint
	// NAT is the node's connectivity class as discovered at join time
	// (e.g. via STUN-style probing). Defaults to Public.
	NAT NATClass
	// Bootstrap seeds the view; for natted seeds the introducer must have
	// opened the corresponding holes.
	Bootstrap []Descriptor

	// ViewSize is the partial view size. Default 15 (paper §5); at most
	// 117, the largest whose full shuffle fits one datagram.
	ViewSize int
	// Period is the shuffling period. Default 5 s (paper §5). Durations
	// must not be negative.
	Period time.Duration
	// HoleTimeout is the assumed NAT rule lifetime. Default 90 s; at least
	// 1 ms and at most 2³²−1 ms, the longest route TTL a shuffle carries.
	HoleTimeout time.Duration
	// LatencyBound is the assumed one-way latency upper bound used to
	// discount relayed route TTLs. Default 500 ms.
	LatencyBound time.Duration
	// Selection and Merge choose the gossip policies. Defaults: rand,
	// healer — the basis configuration of the paper's Fig. 6.
	Selection Selection
	Merge     Merge
	// Seed makes the node's randomness reproducible; 0 derives one from
	// the ID.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ViewSize == 0 {
		c.ViewSize = 15
	}
	if c.Period == 0 {
		c.Period = 5 * time.Second
	}
	if c.HoleTimeout == 0 {
		c.HoleTimeout = 90 * time.Second
	}
	if c.LatencyBound == 0 {
		c.LatencyBound = 500 * time.Millisecond
	}
	if c.Merge == 0 {
		c.Merge = MergeHealer
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID)*2654435761 + 1
	}
	return c
}

// Stats is a snapshot of the node's protocol counters (see core.Stats for
// field semantics).
type Stats = core.Stats

// Node runs the Nylon protocol in real time over a Transport. Create with
// NewNode, then Start. All methods are safe for concurrent use.
type Node struct {
	cfg   Config
	start time.Time

	// mu is the engine mutex: it serializes every engine call and guards
	// the fields below, on whichever goroutine delivers a packet. It stays
	// valid after Close, when a handler may still be finishing a packet.
	mu     sync.Mutex
	engine *core.Nylon
	// Reused for every packet (DESIGN.md, "Live datapath"): the engine's
	// message pool, the decode target and the encode buffer.
	msgs wire.Pool
	in   wire.Message
	out  []byte
	// sampleRNG drives Sample, apart from the engine's stream so that
	// serving samples never perturbs the protocol.
	sampleRNG *rand.Rand

	malformed atomic.Uint64 // datagrams that failed to decode
	wg        sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// NewNode builds a node. The node is inert until Start.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.ID.IsNil() {
		return nil, errors.New("nylon: Config.ID is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("nylon: Config.Transport is required")
	}
	if cfg.Advertise.IsZero() {
		return nil, errors.New("nylon: Config.Advertise is required")
	}
	if !cfg.NAT.Valid() {
		return nil, fmt.Errorf("nylon: invalid NAT class %v", cfg.NAT)
	}
	if cfg.ViewSize < 1 {
		return nil, fmt.Errorf("nylon: Config.ViewSize %d must be positive", cfg.ViewSize)
	}
	// A full shuffle carries ViewSize/2 entries (the sender's own descriptor
	// and ViewSize/2-1 view entries) and must fit one datagram.
	if fit := wire.EntriesWithin(transport.MaxDatagram); cfg.ViewSize/2 > fit {
		return nil, fmt.Errorf("nylon: Config.ViewSize %d: a full shuffle would exceed the %d-byte datagram (largest view %d)",
			cfg.ViewSize, transport.MaxDatagram, 2*fit+1)
	}
	for _, d := range []struct {
		field string
		v     time.Duration
	}{{"Period", cfg.Period}, {"HoleTimeout", cfg.HoleTimeout}, {"LatencyBound", cfg.LatencyBound}} {
		if d.v < 0 {
			return nil, fmt.Errorf("nylon: Config.%s %v must not be negative", d.field, d.v)
		}
	}
	// The engine counts the hole timeout in whole milliseconds, and a route
	// TTL, which it bounds, crosses the wire as a uint32 of them.
	if maxHole := time.Duration(math.MaxUint32) * time.Millisecond; cfg.HoleTimeout < time.Millisecond || cfg.HoleTimeout > maxHole {
		return nil, fmt.Errorf("nylon: Config.HoleTimeout %v outside [1ms, %v]", cfg.HoleTimeout, maxHole)
	}
	n := &Node{
		cfg:       cfg,
		out:       make([]byte, 0, transport.MaxDatagram),
		sampleRNG: rand.New(rand.NewSource(cfg.Seed ^ 0x53616d706c65)), // "Sample"
	}
	n.engine = core.NewNylon(core.Config{
		Self:         Descriptor{ID: cfg.ID, Addr: cfg.Advertise, Class: cfg.NAT},
		ViewSize:     cfg.ViewSize,
		Selection:    cfg.Selection,
		Merge:        cfg.Merge,
		PushPull:     true,
		HoleTimeout:  cfg.HoleTimeout.Milliseconds(),
		LatencyBound: cfg.LatencyBound.Milliseconds(),
		RNG:          rand.New(rand.NewSource(cfg.Seed)),
		// Deployed nodes must shed departed peers: evict targets that
		// never answer.
		EvictUnanswered: true,
		Msgs:            &n.msgs,
	})
	return n, nil
}

// Start begins gossiping. It is idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.mu.Lock()
		n.start = time.Now()
		n.engine.Bootstrap(0, n.cfg.Bootstrap)
		n.mu.Unlock()
		if h, ok := n.cfg.Transport.(transport.Handled); ok {
			h.SetHandler(n.handlePacket)
		}
		n.wg.Add(1)
		go n.run()
	})
}

func (n *Node) now() int64 { return time.Since(n.start).Milliseconds() }

// run drives the shuffling period and reads Packets: the whole receive path of
// a transport without a handler; with one, only the datagrams queued before
// Start. Either way Close closes the channel, which ends the loop.
func (n *Node) run() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			n.mu.Lock()
			n.dispatch(n.engine.Tick(n.now()))
			n.mu.Unlock()
		case pkt, ok := <-n.cfg.Transport.Packets():
			if !ok {
				return
			}
			n.handlePacket(pkt)
		}
	}
}

// handlePacket takes one datagram through the engine and sends the answers,
// without allocating. pkt.Data is not retained.
func (n *Node) handlePacket(pkt Packet) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if boot.IsBoot(pkt.Data) {
		n.handleBoot(pkt.Data)
		return
	}
	if err := wire.UnmarshalInto(&n.in, pkt.Data); err != nil {
		n.malformed.Add(1) // hostile or corrupt datagram
		return
	}
	n.dispatch(n.engine.Receive(n.now(), pkt.From, &n.in))
}

// handleBoot processes introducer-protocol datagrams arriving on the shared
// socket. A Punch message means a new peer joined and the introducer (or the
// joiner itself) asks us to open our NAT toward it: we answer with a punch of
// our own — the outbound datagram that installs the filtering rule — and
// adopt the joiner into the view so the overlay absorbs newcomers even
// before they gossip.
func (n *Node) handleBoot(data []byte) {
	m, err := boot.Unmarshal(data)
	if err != nil {
		n.malformed.Add(1)
		return
	}
	joiner := m.Self
	if m.Kind != boot.KindPunch || joiner.ID.IsNil() || joiner.ID == n.cfg.ID || joiner.Addr.IsZero() {
		return
	}
	// Reply only on first contact, so two nodes punching each other do not
	// bounce punches forever.
	if !n.engine.View().Contains(joiner.ID) {
		reply := &boot.Message{Kind: boot.KindPunch, Self: n.engine.Self()}
		if out, err := reply.Marshal(); err == nil {
			_ = n.cfg.Transport.Send(joiner.Addr, out)
		}
	}
	n.engine.Bootstrap(n.now(), []Descriptor{joiner})
}

// dispatch sends the engine's commands and recycles their messages.
func (n *Node) dispatch(sends []core.Send) {
	for _, s := range sends {
		var err error
		if n.out, err = s.Msg.AppendMarshal(n.out[:0]); err == nil {
			// Best effort, like UDP itself.
			_ = n.cfg.Transport.Send(s.To, n.out)
		}
		n.msgs.Put(s.Msg)
	}
}

// Self returns the node's own descriptor.
func (n *Node) Self() Descriptor { return n.engine.Self() }

// View returns a snapshot of the current partial view.
func (n *Node) View() []Descriptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine.View().Entries()
}

// Sample returns up to k peers drawn uniformly at random from the current
// view — the "peer sampling service" interface. A k below one returns none.
func (n *Node) Sample(k int) []Descriptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := n.engine.View().Entries()
	n.sampleRNG.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	if k < len(entries) {
		entries = entries[:max(k, 0)]
	}
	return entries
}

// Stats returns a snapshot of the protocol counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return *n.engine.Stats()
}

// Drops counts the datagrams that reached the socket but not the protocol:
// those that failed to decode, and those the transport discarded on a full
// Packets queue (zero when the transport does not count them).
func (n *Node) Drops() (malformed, queueFull uint64) {
	if c, ok := n.cfg.Transport.(transport.DropCounter); ok {
		queueFull = c.Dropped()
	}
	return n.malformed.Load(), queueFull
}

// Close stops the node and closes its transport. It is idempotent. A handler
// may still be finishing one packet when Close returns; its sends then fail.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		err = n.cfg.Transport.Close()
		n.wg.Wait()
	})
	return err
}
