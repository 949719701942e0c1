package nylon

import (
	"testing"
	"time"
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
	cases := []Config{
		{Transport: tr, Advertise: tr.LocalAddr()},                           // no ID
		{ID: 1, Advertise: tr.LocalAddr()},                                   // no transport
		{ID: 1, Transport: tr},                                               // no advertise
		{ID: 1, Transport: tr, Advertise: tr.LocalAddr(), NAT: NATClass(99)}, // bad class
	}
	for i, cfg := range cases {
		if _, err := NewNode(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
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
