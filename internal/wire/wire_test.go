package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/view"
)

func sampleMsg() *Message {
	return &Message{
		Kind: KindRequest,
		Hops: 3,
		Src:  view.Descriptor{ID: 7, Addr: ident.Endpoint{IP: 0x01020304, Port: 80}, Class: ident.Symmetric, Age: 2},
		Dst:  view.Descriptor{ID: 9, Addr: ident.Endpoint{IP: 0x05060708, Port: 90}, Class: ident.Public, Age: 0},
		Via:  view.Descriptor{ID: 8, Addr: ident.Endpoint{IP: 0x090a0b0c, Port: 70}, Class: ident.RestrictedCone, Age: 1},
		Entries: []ViewEntry{
			{Desc: view.Descriptor{ID: 11, Addr: ident.Endpoint{IP: 1, Port: 2}, Class: ident.RestrictedCone, Age: 5}, RouteTTL: 90_000},
			{Desc: view.Descriptor{ID: 12, Addr: ident.Endpoint{IP: 3, Port: 4}, Class: ident.PortRestrictedCone, Age: 6}, RouteTTL: 0},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindRequest, KindResponse, KindOpenHole, KindPing, KindPong} {
		m := sampleMsg()
		m.Kind = k
		if k == KindPing || k == KindPong {
			m.Entries = nil
		}
		b, err := m.Marshal()
		if err != nil {
			t.Fatalf("%v: Marshal: %v", k, err)
		}
		if len(b) != m.Size() {
			t.Errorf("%v: encoded %d bytes, Size() says %d", k, len(b), m.Size())
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", k, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", k, got, m)
		}
	}
}

// TestRoundTripProperty fuzzes the codec with arbitrary valid messages.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randDesc := func() view.Descriptor {
			return view.Descriptor{
				ID:    ident.NodeID(rng.Uint64()),
				Addr:  ident.Endpoint{IP: ident.IP(rng.Uint32()), Port: uint16(rng.Intn(1 << 16))},
				Class: ident.NATClass(rng.Intn(ident.NumClasses)),
				Age:   rng.Uint32(),
			}
		}
		m := &Message{
			Kind: Kind(1 + rng.Intn(5)),
			Hops: uint8(rng.Intn(256)),
			Src:  randDesc(),
			Dst:  randDesc(),
			Via:  randDesc(),
		}
		for i := rng.Intn(40); i > 0; i-- {
			m.Entries = append(m.Entries, ViewEntry{Desc: randDesc(), RouteTTL: rng.Uint32()})
		}
		b, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	good, err := sampleMsg().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := make([]byte, len(good))
		copy(b, good)
		return f(b)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"truncated header", good[:10]},
		{"truncated entries", good[:len(good)-1]},
		{"trailing garbage", append(mutate(func(b []byte) []byte { return b }), 0)},
		{"bad version", mutate(func(b []byte) []byte { b[0] = 9; return b })},
		{"bad kind", mutate(func(b []byte) []byte { b[1] = 0; return b })},
		{"bad src class", mutate(func(b []byte) []byte { b[3+14] = 200; return b })},
		{"bad dst class", mutate(func(b []byte) []byte { b[3+19+14] = 200; return b })},
		{"bad via class", mutate(func(b []byte) []byte { b[3+2*19+14] = 200; return b })},
		{"bad entry class", mutate(func(b []byte) []byte { b[62+14] = 200; return b })},
		{"entry count too large", mutate(func(b []byte) []byte { b[60] = 255; b[61] = 255; return b })},
	}
	for _, tc := range cases {
		if _, err := Unmarshal(tc.b); err == nil {
			t.Errorf("%s: Unmarshal succeeded, want error", tc.name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", tc.name, err)
		}
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	m := sampleMsg()
	m.Kind = 0
	if _, err := m.Marshal(); err == nil {
		t.Error("Marshal accepted invalid kind")
	}
	m = sampleMsg()
	m.Entries = make([]ViewEntry, MaxEntries+1)
	if _, err := m.Marshal(); err == nil {
		t.Error("Marshal accepted oversized entry list")
	}
}

func TestClone(t *testing.T) {
	var pool Pool
	m := sampleMsg()
	c := pool.Clone(m)
	if !reflect.DeepEqual(m, c) {
		t.Fatal("clone differs")
	}
	c.Hops++
	c.Entries[0].RouteTTL = 1
	if m.Hops == c.Hops || m.Entries[0].RouteTTL == 1 {
		t.Error("clone aliases original")
	}
	// Cloning a message without entries yields no entries (the backing
	// array may be a recycled pool buffer, so nil-ness is not guaranteed).
	m.Entries = nil
	if c := pool.Clone(m); len(c.Entries) != 0 {
		t.Error("clone invented entries")
	}
}

func TestDescriptors(t *testing.T) {
	m := sampleMsg()
	ds := m.AppendDescriptors(nil)
	if len(ds) != 2 || ds[0].ID != 11 || ds[1].ID != 12 {
		t.Errorf("Descriptors = %v", ds)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindRequest:  "REQUEST",
		KindResponse: "RESPONSE",
		KindOpenHole: "OPEN_HOLE",
		KindPing:     "PING",
		KindPong:     "PONG",
		Kind(99):     "kind(99)",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestMessageString(t *testing.T) {
	if sampleMsg().String() == "" {
		t.Error("String() empty")
	}
}

func TestSizeMatchesPaperScale(t *testing.T) {
	// A shuffle request with a 15-entry view — the paper's default — must
	// stay in the few-hundred-bytes range that makes Fig. 7's <350 B/s
	// plausible at a 5 s period.
	m := &Message{Kind: KindRequest, Entries: make([]ViewEntry, 16)}
	if s := m.Size(); s > 500 {
		t.Errorf("16-entry REQUEST is %d bytes; codec too fat for Fig. 7 scale", s)
	}
}
