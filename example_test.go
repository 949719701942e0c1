package nylon_test

import (
	"fmt"
	"time"

	nylon "repro"
)

// A complete in-process overlay: two nodes on the in-memory switch, one of
// them behind a simulated port-restricted NAT.
func ExampleNewNode() {
	sw := nylon.NewSwitch(time.Millisecond)

	pubTr := sw.Attach()
	pub, err := nylon.NewNode(nylon.Config{
		ID:        1,
		Transport: pubTr,
		Advertise: pubTr.LocalAddr(),
		Period:    20 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}

	natTr, mapped := sw.AttachNAT(nylon.PortRestrictedCone, 90*time.Second)
	natted, err := nylon.NewNode(nylon.Config{
		ID:        2,
		Transport: natTr,
		Advertise: mapped,
		NAT:       nylon.PortRestrictedCone,
		Bootstrap: []nylon.Descriptor{pub.Self()},
		Period:    20 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}

	pub.Start()
	natted.Start()
	defer pub.Close()
	defer natted.Close()

	time.Sleep(200 * time.Millisecond)
	fmt.Println(len(natted.Sample(1)) > 0)
	// Output: true
}

// Joining a live overlay through an introducer: the handshake discovers the
// caller's NAT class and mapping, and returns pre-punched seeds.
func ExampleJoin() {
	sw := nylon.NewSwitch(time.Millisecond)
	primary := sw.Attach()
	defer primary.Close()
	in, err := nylon.NewIntroducer(nylon.IntroducerConfig{
		Primary: primary,
		AltPort: sw.AttachSibling(primary, 3479),
		AltIP:   sw.Attach(),
	})
	if err != nil {
		panic(err)
	}
	defer in.Close()

	tr, _ := sw.AttachNAT(nylon.RestrictedCone, 90*time.Second)
	defer tr.Close()
	// The timeout bounds each classification probe; blocked probes (which
	// are how restrictive filtering is detected) cost one timeout each.
	res, err := nylon.Join(tr, primary.LocalAddr(), 42, 200*time.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Class)
	// Output: rc
}

func ExampleParseEndpoint() {
	ep, err := nylon.ParseEndpoint("192.0.2.10:9000")
	if err != nil {
		panic(err)
	}
	fmt.Println(ep)
	// Output: 192.0.2.10:9000
}

func ExampleParseNATClass() {
	class, err := nylon.ParseNATClass("prc")
	if err != nil {
		panic(err)
	}
	fmt.Println(class.Natted())
	// Output: true
}
