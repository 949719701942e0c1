package nylon

import (
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// startCluster launches n public nodes on one in-memory switch, each
// bootstrapped with the previous nodes (up to viewSize).
func startCluster(t *testing.T, n int) []*Node {
	t.Helper()
	sw := NewSwitch(time.Millisecond)
	nodes := make([]*Node, 0, n)
	var seeds []Descriptor
	for i := 1; i <= n; i++ {
		tr := sw.Attach()
		boot := make([]Descriptor, len(seeds))
		copy(boot, seeds)
		node, err := NewNode(Config{
			ID:        NodeID(i),
			Transport: tr,
			Advertise: tr.LocalAddr(),
			Bootstrap: boot,
			ViewSize:  8,
			Period:    20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		seeds = append(seeds, node.Self())
		if len(seeds) > 8 {
			seeds = seeds[1:]
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

func TestNodeConfigValidation(t *testing.T) {
	sw := NewSwitch(0)
	tr := sw.Attach()
	defer tr.Close()
	ok := Config{ID: 1, Transport: tr, Advertise: tr.LocalAddr()}
	with := func(edit func(*Config)) Config { c := ok; edit(&c); return c }
	cases := []struct {
		cfg  Config
		want string // in the error
	}{
		{Config{Transport: tr, Advertise: tr.LocalAddr()}, "ID"},
		{Config{ID: 1, Advertise: tr.LocalAddr()}, "Transport"},
		{Config{ID: 1, Transport: tr}, "Advertise"},
		{with(func(c *Config) { c.NAT = NATClass(99) }), "NAT class"},
		{with(func(c *Config) { c.ViewSize = -3 }), "ViewSize -3"},
		{with(func(c *Config) { c.ViewSize = 118 }), "ViewSize 118"},
		{with(func(c *Config) { c.ViewSize = 1e9 }), "ViewSize 1000000000"},
		{with(func(c *Config) { c.Period = -time.Second }), "Period -1s"},
		{with(func(c *Config) { c.HoleTimeout = -time.Second }), "HoleTimeout -1s"},
		{with(func(c *Config) { c.HoleTimeout = 500 * time.Microsecond }), "HoleTimeout 500µs"},
		{with(func(c *Config) { c.HoleTimeout = (1 << 32) * time.Millisecond }), "HoleTimeout 1193h2m47.296s"},
		{with(func(c *Config) { c.LatencyBound = -time.Millisecond }), "LatencyBound -1ms"},
	}
	for i, c := range cases {
		if _, err := NewNode(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want one naming %q", i, err, c.want)
		}
	}
	// The paper's views and the largest whose full shuffle fits a datagram
	// are accepted.
	for _, size := range []int{15, 27, 117} {
		if _, err := NewNode(with(func(c *Config) { c.ViewSize = size })); err != nil {
			t.Errorf("ViewSize %d refused: %v", size, err)
		}
	}
}

// TestLargestViewShuffleFits pins the ViewSize bound to the codec: a node with
// the largest accepted view, once its view is full, sends a shuffle that
// marshals within MaxDatagram, and one entry more would not.
func TestLargestViewShuffleFits(t *testing.T) {
	const size = 117
	tr := NewSwitch(0).Attach()
	seeds := make([]Descriptor, size)
	for i := range seeds {
		seeds[i] = Descriptor{ID: NodeID(i + 2), Addr: Endpoint{IP: 0x0a000000 + IP(i), Port: 9000}, Class: Public}
	}
	n, err := NewNode(Config{ID: 1, Transport: tr, Advertise: tr.LocalAddr(), ViewSize: size, Bootstrap: seeds})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.engine.Bootstrap(0, seeds)
	sends := n.engine.Tick(1)
	if len(sends) == 0 {
		t.Fatal("a full view sent no shuffle")
	}
	msg := sends[0].Msg
	if len(msg.Entries) != size/2 {
		t.Fatalf("shuffle carries %d entries, want %d", len(msg.Entries), size/2)
	}
	data, err := msg.Marshal()
	if err != nil || len(data) > transport.MaxDatagram {
		t.Fatalf("full shuffle marshals to %d bytes (err %v), limit %d", len(data), err, transport.MaxDatagram)
	}
	msg.Entries = append(msg.Entries, msg.Entries[0])
	if data, _ := msg.Marshal(); len(data) <= transport.MaxDatagram {
		t.Errorf("one entry more still fits (%d bytes): the bound is not tight", len(data))
	}
}

func TestNodeGossipConverges(t *testing.T) {
	nodes := startCluster(t, 12)
	deadline := time.Now().Add(5 * time.Second)
	for {
		full := 0
		for _, n := range nodes {
			if len(n.View()) >= 6 {
				full++
			}
		}
		if full == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("views did not fill: %d/%d", full, len(nodes))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Every node completed shuffles and views hold no self references.
	for _, n := range nodes {
		st := n.Stats()
		if st.ShufflesInitiated == 0 {
			t.Errorf("node %v never initiated", n.Self().ID)
		}
		for _, d := range n.View() {
			if d.ID == n.Self().ID {
				t.Errorf("node %v holds itself in view", n.Self().ID)
			}
		}
	}
}

func TestNodeSample(t *testing.T) {
	nodes := startCluster(t, 6)
	time.Sleep(200 * time.Millisecond)
	s := nodes[len(nodes)-1].Sample(3)
	if len(s) == 0 {
		t.Fatal("empty sample")
	}
	if len(s) > 3 {
		t.Errorf("Sample(3) returned %d", len(s))
	}
	// Sample larger than view returns the whole view.
	all := nodes[len(nodes)-1].Sample(1000)
	if len(all) != len(nodes[len(nodes)-1].View()) {
		t.Errorf("oversized sample = %d entries", len(all))
	}
}

// TestNodeSampleNegative pins that a negative k asks for no peers rather than
// slicing the view with it.
func TestNodeSampleNegative(t *testing.T) {
	nodes := startCluster(t, 3)
	n := nodes[len(nodes)-1]
	for deadline := time.Now().Add(5 * time.Second); len(n.View()) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("view never filled")
		}
	}
	for _, k := range []int{-1, -1000, 0} {
		if s := n.Sample(k); len(s) != 0 {
			t.Errorf("Sample(%d) returned %d peers, want none", k, len(s))
		}
	}
}

func TestNodeThroughNAT(t *testing.T) {
	sw := NewSwitch(time.Millisecond)
	pubTr := sw.Attach()
	pub, err := NewNode(Config{
		ID: 1, Transport: pubTr, Advertise: pubTr.LocalAddr(),
		ViewSize: 4, Period: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	natTr, adv := sw.AttachNAT(PortRestrictedCone, time.Minute)
	natted, err := NewNode(Config{
		ID: 2, Transport: natTr, Advertise: adv, NAT: PortRestrictedCone,
		Bootstrap: []Descriptor{pub.Self()},
		ViewSize:  4, Period: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub.Start()
	natted.Start()
	defer pub.Close()
	defer natted.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// The public node must learn the natted one through its shuffles,
		// and the natted node must complete exchanges.
		if natted.Stats().ShufflesCompleted > 0 {
			found := false
			for _, d := range pub.View() {
				if d.ID == 2 {
					found = true
				}
			}
			if found {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("no exchange through NAT: natted=%+v pubView=%v", natted.Stats(), pub.View())
}

func TestNodeOverUDP(t *testing.T) {
	trA, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNode(Config{
		ID: 1, Transport: trA, Advertise: trA.LocalAddr(),
		ViewSize: 4, Period: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	trB, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{
		ID: 2, Transport: trB, Advertise: trB.LocalAddr(),
		Bootstrap: []Descriptor{a.Self()},
		ViewSize:  4, Period: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	defer a.Close()
	defer b.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().ShufflesCompleted > 0 && len(a.View()) > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("UDP nodes never exchanged views")
}

func TestNodeCloseIdempotent(t *testing.T) {
	sw := NewSwitch(0)
	tr := sw.Attach()
	n, err := NewNode(Config{ID: 1, Transport: tr, Advertise: tr.LocalAddr()})
	if err != nil {
		t.Fatal(err)
	}
	// Reads work before Start.
	if got := n.View(); len(got) != 0 {
		t.Errorf("pre-start view = %v", got)
	}
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal("second close:", err)
	}
	// Reads still work after Close.
	_ = n.View()
	_ = n.Stats()
}

func TestNodeDefaults(t *testing.T) {
	cfg := Config{ID: 7}.withDefaults()
	if cfg.ViewSize != 15 || cfg.Period != 5*time.Second || cfg.HoleTimeout != 90*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.Merge != MergeHealer || cfg.Selection != SelectRand {
		t.Errorf("policy defaults = %v/%v", cfg.Selection, cfg.Merge)
	}
	if cfg.Seed == 0 {
		t.Error("seed not derived")
	}
}
