package boot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/transport"
	"repro/internal/view"
	"repro/internal/wire"
)

// fastJoin is the tests' probe timeout: a probe whose reply never comes waits
// probeAttempts × fastJoin = 150 ms in total.
const fastJoin = 75 * time.Millisecond

// newIntroducer stands up a fully-equipped introducer (primary + alternate
// port + alternate IP) on the given switch.
func newIntroducer(t *testing.T, sw *transport.Switch) (*Introducer, ident.Endpoint) {
	t.Helper()
	primary := sw.Attach()
	altPort := sw.AttachSibling(primary, 9001)
	altIP := sw.Attach()
	in, err := NewIntroducer(IntroducerConfig{Primary: primary, AltPort: altPort, AltIP: altIP})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		in.Close()
		primary.Close()
		altPort.Close()
		altIP.Close()
	})
	return in, primary.LocalAddr()
}

// codecMessages holds one message of every kind.
func codecMessages() []*Message {
	return []*Message{
		{Kind: KindBindingReq, Seq: 7, Via: ViaAltIP},
		{
			Kind: KindBindingResp, Seq: 7,
			Mapped:  ident.Endpoint{IP: 1, Port: 2},
			AltPort: ident.Endpoint{IP: 3, Port: 4},
			AltIP:   ident.Endpoint{IP: 5, Port: 6},
		},
		{Kind: KindJoinReq, Self: view.Descriptor{ID: 9, Addr: ident.Endpoint{IP: 9, Port: 9}, Class: ident.Symmetric}},
		{Kind: KindJoinResp, Seeds: []view.Descriptor{
			{ID: 1, Addr: ident.Endpoint{IP: 1, Port: 1}, Class: ident.Public},
			{ID: 2, Addr: ident.Endpoint{IP: 2, Port: 2}, Class: ident.RestrictedCone},
		}},
		{Kind: KindPunch, Self: view.Descriptor{ID: 3, Class: ident.PortRestrictedCone}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, m := range codecMessages() {
		data, err := m.Marshal()
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !IsBoot(data) {
			t.Errorf("%v: IsBoot = false", m.Kind)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestCodecErrors(t *testing.T) {
	good, err := (&Message{Kind: KindJoinResp, Seeds: []view.Descriptor{{ID: 1}}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		good[:5],
		append(append([]byte{}, good...), 1), // trailing byte
		func() []byte { b := append([]byte{}, good...); b[0] = 0x7f; return b }(),     // bad magic
		func() []byte { b := append([]byte{}, good...); b[1] = 99; return b }(),       // bad kind
		func() []byte { b := append([]byte{}, good...); b[2] = 99; return b }(),       // bad via
		func() []byte { b := append([]byte{}, good...); b[len(b)-5] = 9; return b }(), // bad seed class
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
	if _, err := (&Message{Kind: 0}).Marshal(); err == nil {
		t.Error("bad kind marshalled")
	}
	if _, err := (&Message{Kind: KindJoinResp, Seeds: make([]view.Descriptor, MaxSeeds+1)}).Marshal(); err == nil {
		t.Error("oversized seed list marshalled")
	}
}

// FuzzBootUnmarshal feeds the bootstrap decoder foreign bytes, as a node's
// shared socket and the introducer's three sockets do: it must never panic,
// must wrap ErrMalformed when it refuses, and every message it accepts must
// re-marshal to the very same bytes.
func FuzzBootUnmarshal(f *testing.F) {
	for _, m := range codecMessages() {
		data, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	full := &Message{Kind: KindJoinResp, Seq: 1}
	for i := 0; i < MaxSeeds; i++ {
		full.Seeds = append(full.Seeds, view.Descriptor{ID: ident.NodeID(i + 1), Addr: ident.Endpoint{IP: ident.IP(i), Port: 4000}, Class: ident.NATClass(i % ident.NumClasses)})
	}
	data, err := full.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-1])
	over := append(append([]byte(nil), data...), data[len(data)-wire.DescriptorSize:]...)
	binary.BigEndian.PutUint16(over[headerLen-2:], MaxSeeds+1)
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if m != nil || !errors.Is(err, ErrMalformed) {
				t.Fatalf("refusal returned %v and an error not wrapping ErrMalformed: %v", m, err)
			}
			return
		}
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshalled bytes differ:\n in  %x\n out %x", data, out)
		}
	})
}

func TestIsBootDistinguishesGossip(t *testing.T) {
	if IsBoot([]byte{1, 2, 3}) {
		t.Error("gossip wire version byte mistaken for boot magic")
	}
	if IsBoot(nil) {
		t.Error("empty datagram is boot")
	}
}

// TestClassification joins through every NAT class and checks the inferred
// class — the live RFC 3489 decision tree over simulated devices.
func TestClassification(t *testing.T) {
	cases := []ident.NATClass{
		ident.Public,
		ident.FullCone,
		ident.RestrictedCone,
		ident.PortRestrictedCone,
		ident.Symmetric,
	}
	for _, class := range cases {
		t.Run(class.String(), func(t *testing.T) {
			sw := transport.NewSwitch(time.Millisecond)
			defer sw.Close()
			_, introducer := newIntroducer(t, sw)

			var tr transport.Transport
			if class == ident.Public {
				p := sw.Attach()
				defer p.Close()
				tr = p
			} else {
				p, _ := sw.AttachNAT(class, time.Minute)
				defer p.Close()
				tr = p
			}
			res, err := Join(tr, introducer, 42, fastJoin)
			if err != nil {
				t.Fatal(err)
			}
			if res.Class != class {
				t.Errorf("classified as %v, want %v", res.Class, class)
			}
			if res.Mapped.IsZero() {
				t.Error("no mapped endpoint")
			}
		})
	}
}

func TestJoinHandsOutSeeds(t *testing.T) {
	sw := transport.NewSwitch(time.Millisecond)
	defer sw.Close()
	in, introducer := newIntroducer(t, sw)

	var members []*transport.MemTransport
	for i := 1; i <= 5; i++ {
		tr, _ := sw.AttachNAT(ident.PortRestrictedCone, time.Minute)
		members = append(members, tr)
		res, err := Join(tr, introducer, ident.NodeID(i), fastJoin)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if want := i - 1; len(res.Seeds) != min(want, 8) {
			t.Errorf("join %d got %d seeds, want %d", i, len(res.Seeds), want)
		}
		// Seeds must never include the joiner.
		for _, s := range res.Seeds {
			if s.ID == ident.NodeID(i) {
				t.Errorf("join %d was handed itself as a seed", i)
			}
		}
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	if in.Members() != 5 {
		t.Errorf("Members = %d, want 5", in.Members())
	}
}

// TestNewIntroducerValidation pins the refusals: a seed count one JoinResp
// cannot carry, a negative seed count or member TTL, and a missing primary
// socket are errors naming the field, not a silent failure at some later
// join or a panic.
func TestNewIntroducerValidation(t *testing.T) {
	sw := transport.NewSwitch(0)
	defer sw.Close()
	primary := sw.Attach()
	defer primary.Close()
	for _, c := range []struct {
		cfg  IntroducerConfig
		want string // in the error
	}{
		{IntroducerConfig{Primary: primary, MaxSeeds: MaxSeeds + 1}, "MaxSeeds 65"},
		{IntroducerConfig{Primary: primary, MaxSeeds: -1}, "MaxSeeds -1"},
		{IntroducerConfig{Primary: primary, MemberTTL: -time.Second}, "MemberTTL -1s"},
		{IntroducerConfig{}, "Primary"},
	} {
		in, err := NewIntroducer(c.cfg)
		if err == nil {
			in.Close()
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want one naming %q", c.cfg, err, c.want)
		}
	}
}

// TestJoinAtSeedLimit pins that an introducer handing out the most seeds one
// JoinResp carries keeps admitting joiners once it has more members than
// that.
func TestJoinAtSeedLimit(t *testing.T) {
	sw := transport.NewSwitch(0)
	defer sw.Close()
	primary := sw.Attach()
	defer primary.Close()
	in, err := NewIntroducer(IntroducerConfig{Primary: primary, MaxSeeds: MaxSeeds})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	for i := 1; i <= MaxSeeds+6; i++ {
		tr := sw.Attach()
		defer tr.Close()
		res, err := Join(tr, primary.LocalAddr(), ident.NodeID(i), fastJoin)
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if want := min(i-1, MaxSeeds); len(res.Seeds) != want {
			t.Fatalf("join %d got %d seeds, want %d", i, len(res.Seeds), want)
		}
	}
}

// TestJoinOpensUsableHoles verifies the whole point: after two natted peers
// join, the second can message the first directly even though both sit
// behind port-restricted NATs.
func TestJoinOpensUsableHoles(t *testing.T) {
	sw := transport.NewSwitch(time.Millisecond)
	defer sw.Close()
	_, introducer := newIntroducer(t, sw)

	trA, _ := sw.AttachNAT(ident.PortRestrictedCone, time.Minute)
	defer trA.Close()
	resA, err := Join(trA, introducer, 1, fastJoin)
	if err != nil {
		t.Fatal(err)
	}

	trB, _ := sw.AttachNAT(ident.PortRestrictedCone, time.Minute)
	defer trB.Close()
	resB, err := Join(trB, introducer, 2, fastJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(resB.Seeds) != 1 || resB.Seeds[0].ID != 1 {
		t.Fatalf("B's seeds = %v, want [n1]", resB.Seeds)
	}

	// Give the punch datagrams a moment to cross the switch.
	time.Sleep(50 * time.Millisecond)

	// B sends directly to A's advertised mapping; A's NAT must admit it
	// thanks to the punch A sent after the introducer's request.
	probe, err := (&Message{Kind: KindPunch, Self: view.Descriptor{ID: 2, Addr: resB.Mapped, Class: resB.Class}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := trB.Send(resA.Mapped, probe); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-trA.Packets():
		m, err := Unmarshal(pkt.Data)
		if err != nil || m.Kind != KindPunch || m.Self.ID != 2 {
			t.Errorf("A received %v, %v", m, err)
		}
	case <-time.After(time.Second):
		t.Fatal("hole not open: B's datagram never reached A")
	}
}

func TestJoinTimeout(t *testing.T) {
	sw := transport.NewSwitch(0)
	defer sw.Close()
	tr := sw.Attach()
	defer tr.Close()
	// Nobody listening at the target endpoint.
	_, err := Join(tr, ident.Endpoint{IP: 0x7e000001, Port: 1}, 1, fastJoin)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestIntroducerWithoutAlternates(t *testing.T) {
	sw := transport.NewSwitch(time.Millisecond)
	defer sw.Close()
	primary := sw.Attach()
	defer primary.Close()
	in, err := NewIntroducer(IntroducerConfig{Primary: primary})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	tr, _ := sw.AttachNAT(ident.RestrictedCone, time.Minute)
	defer tr.Close()
	res, err := Join(tr, primary.LocalAddr(), 1, fastJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Without alternate sockets RC degrades to the conservative PRC.
	if res.Class != ident.PortRestrictedCone {
		t.Errorf("degraded classification = %v, want prc", res.Class)
	}
}

func TestIntroducerCloseIdempotent(t *testing.T) {
	sw := transport.NewSwitch(0)
	defer sw.Close()
	primary := sw.Attach()
	defer primary.Close()
	in, err := NewIntroducer(IntroducerConfig{Primary: primary})
	if err != nil {
		t.Fatal(err)
	}
	in.Close()
	in.Close()
}
