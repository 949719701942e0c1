// NAT-lab: a walkthrough of Section 2 of the paper. It prints the traversal
// decision matrix, then verifies each (source, destination) NAT combination
// live: two Nylon nodes behind simulated NAT devices of the given classes,
// introduced through a public rendez-vous node, must complete a shuffle.
//
// Run with: go run ./examples/nat-lab
package main

import (
	"fmt"
	"log"
	"time"

	nylon "repro"
	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/traversal"
)

var classes = []nylon.NATClass{nylon.Public, nylon.RestrictedCone, nylon.PortRestrictedCone, nylon.Symmetric}

func main() {
	fmt.Println("== traversal decision matrix (paper §2.2) ==")
	fmt.Printf("%-8s", "src\\dst")
	for _, dst := range classes {
		fmt.Printf(" %-22s", dst)
	}
	fmt.Println()
	for _, src := range classes {
		fmt.Printf("%-8s", src)
		for _, dst := range classes {
			fmt.Printf(" %-22s", traversal.Decide(src, dst))
		}
		fmt.Println()
	}

	fmt.Println("\n== live verification over the in-memory switch ==")
	fmt.Printf("%-18s %-22s %-16s %s\n", "src -> dst", "table's method", "engine (*)", "result")
	for _, src := range classes {
		for _, dst := range classes {
			ok := tryExchange(src, dst)
			status := "ok"
			if !ok {
				status = "FAILED"
			}
			fmt.Printf("%-7s -> %-7s %-22s %-16s %s\n", src, dst, traversal.Decide(src, dst), engineNote[[2]nylon.NATClass{src, dst}], status)
		}
	}
	fmt.Println("\n(*) the technique Nylon.Tick uses where it is not the table's (core.TestRelayConditions)")
}

// engineNote marks the pairs whose exchange Nylon.Tick opens with another
// technique than the table's, and names that technique.
var engineNote = map[[2]nylon.NATClass]string{
	{nylon.Public, nylon.Symmetric}:         "* " + traversal.HolePunch.String(),
	{nylon.Symmetric, nylon.RestrictedCone}: "* " + traversal.Relay.String(),
}

// tryExchange wires rendez-vous -> src -> dst so that src knows dst only
// through the rendez-vous peer, then checks that src completes a shuffle
// with dst.
func tryExchange(srcClass, dstClass nylon.NATClass) bool {
	sw := nylon.NewSwitch(time.Millisecond)

	attach := func(class nylon.NATClass) (*transport.MemTransport, nylon.Endpoint) {
		if class == nylon.Public {
			tr := sw.Attach()
			return tr, tr.LocalAddr()
		}
		return sw.AttachNAT(class, 90*time.Second)
	}
	rvpTr, rvpAdv := attach(nylon.Public)
	srcTr, srcAdv := attach(srcClass)
	dstTr, dstAdv := attach(dstClass)

	// The introducer opened holes between the RVP and both peers (they
	// joined through it).
	sw.OpenHole(srcTr, rvpTr, srcAdv, rvpAdv)
	sw.OpenHole(dstTr, rvpTr, dstAdv, rvpAdv)

	newNode := func(id uint64, tr nylon.Transport, adv nylon.Endpoint, class nylon.NATClass, boot []nylon.Descriptor) *nylon.Node {
		n, err := nylon.NewNode(nylon.Config{
			ID: nylon.NodeID(id), Transport: tr, Advertise: adv, NAT: class,
			Bootstrap: boot, ViewSize: 4, Period: 15 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	rvp := newNode(1, rvpTr, rvpAdv, nylon.Public, nil)
	dst := newNode(3, dstTr, dstAdv, dstClass, []nylon.Descriptor{rvp.Self()})
	src := newNode(2, srcTr, srcAdv, srcClass, []nylon.Descriptor{rvp.Self()})

	for _, n := range []*nylon.Node{rvp, dst, src} {
		n.Start()
	}
	defer func() {
		for _, n := range []*nylon.Node{rvp, dst, src} {
			n.Close()
		}
	}()

	// Wait until src's view contains dst (learned via the RVP) and a
	// shuffle between them completed: dst must appear in src's view AND
	// src must have merged a response from somebody beyond the RVP.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if viewHas(dst, src.Self().ID) && viewHas(src, dst.Self().ID) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func viewHas(n *nylon.Node, id ident.NodeID) bool {
	for _, d := range n.View() {
		if d.ID == id {
			return true
		}
	}
	return false
}
