// Introducer-lab: the complete deployable join flow, live. An introducer
// service runs on the in-memory switch; a dozen peers behind assorted NAT
// devices join through it — each one gets STUN-style NAT classification, its
// public mapping, seed peers, and pre-punched holes — then they gossip with
// Nylon until the overlay is mixed.
//
// This is the real-network analogue of what the simulator's bootstrap does
// in one line.
//
// Run with: go run ./examples/introducer-lab
package main

import (
	"fmt"
	"log"
	"time"

	nylon "repro"
)

func main() {
	sw := nylon.NewSwitch(time.Millisecond)

	// The introducer needs three sockets for full NAT classification:
	// primary, same-IP alternate port, and an alternate IP.
	primary := sw.Attach()
	altPort := sw.AttachSibling(primary, 3479)
	altIP := sw.Attach()
	in, err := nylon.NewIntroducer(nylon.IntroducerConfig{
		Primary: primary, AltPort: altPort, AltIP: altIP,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	fmt.Printf("introducer on %v\n\n", primary.LocalAddr())

	classes := []nylon.NATClass{
		nylon.Public, nylon.RestrictedCone, nylon.PortRestrictedCone,
		nylon.Symmetric, nylon.FullCone,
	}
	var nodes []*nylon.Node
	for i := 1; i <= 12; i++ {
		class := classes[i%len(classes)]
		var tr nylon.Transport
		if class == nylon.Public {
			tr = sw.Attach()
		} else {
			tr, _ = sw.AttachNAT(class, 90*time.Second)
		}

		res, err := nylon.Join(tr, primary.LocalAddr(), nylon.NodeID(i), 500*time.Millisecond)
		if err != nil {
			log.Fatalf("join %d: %v", i, err)
		}
		fmt.Printf("n%-3d behind %-7v classified %-7v mapped %-17v seeds %d\n",
			i, class, res.Class, res.Mapped, len(res.Seeds))
		if res.Class != class {
			log.Fatalf("n%d misclassified: %v != %v", i, res.Class, class)
		}

		node, err := nylon.NewNode(nylon.Config{
			ID:        nylon.NodeID(i),
			Transport: tr,
			Advertise: res.Mapped,
			NAT:       res.Class,
			Bootstrap: res.Seeds,
			ViewSize:  8,
			Period:    25 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		node.Start()
		nodes = append(nodes, node)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	fmt.Println("\noverlay after mixing:")
	for _, n := range nodes {
		st := n.Stats()
		fmt.Printf("%-4v view=%-2d shuffles=%-3d punches=%-2d sample:", n.Self().ID, len(n.View()), st.ShufflesCompleted, st.HolePunchesCompleted)
		for _, d := range n.Sample(4) {
			fmt.Printf(" %v", d.ID)
		}
		fmt.Println()
	}
}
