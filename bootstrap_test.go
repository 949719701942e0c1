package nylon

import (
	"testing"
	"time"
)

// TestJoinThenGossip is the full deployable flow: an introducer, then two
// natted peers that join (getting classified, mapped, seeded and punched) and
// gossip with each other directly through their NATs.
func TestJoinThenGossip(t *testing.T) {
	sw := NewSwitch(time.Millisecond)
	primary := sw.Attach()
	altPort := sw.AttachSibling(primary, 3479)
	altIP := sw.Attach()
	in, err := NewIntroducer(IntroducerConfig{Primary: primary, AltPort: altPort, AltIP: altIP})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		in.Close()
		primary.Close()
		altPort.Close()
		altIP.Close()
	}()

	var nodes []*Node
	for i := 1; i <= 2; i++ {
		tr, _ := sw.AttachNAT(PortRestrictedCone, 90*time.Second)
		res, err := Join(tr, primary.LocalAddr(), NodeID(i), 300*time.Millisecond)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if res.Class != PortRestrictedCone {
			t.Fatalf("join %d classified %v, want prc", i, res.Class)
		}
		node, err := NewNode(Config{
			ID: NodeID(i), Transport: tr,
			Advertise: res.Mapped, NAT: res.Class, Bootstrap: res.Seeds,
			ViewSize: 4, Period: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Start()
		nodes = append(nodes, node)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		// Both natted peers must complete shuffles with each other: the
		// second got the first as a seed; the first must adopt the
		// second via the introducer's punch.
		if nodes[0].Stats().ShufflesCompleted > 0 && nodes[1].Stats().ShufflesCompleted > 0 {
			found := false
			for _, d := range nodes[0].View() {
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
	t.Fatalf("natted joiners never gossiped: n1=%+v view=%v n2=%+v",
		nodes[0].Stats(), nodes[0].View(), nodes[1].Stats())
}
