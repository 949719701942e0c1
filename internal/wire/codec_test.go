package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
)

// referenceMarshal is the encoder as it stood before AppendMarshal existed:
// one exact-size buffer, filled front to back. The tests hold AppendMarshal
// to its bytes, so the wire format cannot drift unnoticed.
func referenceMarshal(m *Message) []byte {
	b := make([]byte, m.Size())
	b[0] = version
	b[1] = byte(m.Kind)
	b[2] = m.Hops
	putDesc(b[3:], m.Src)
	putDesc(b[3+descSize:], m.Dst)
	putDesc(b[3+2*descSize:], m.Via)
	binary.BigEndian.PutUint16(b[3+3*descSize:], uint16(len(m.Entries)))
	off := headerSize
	for _, e := range m.Entries {
		putDesc(b[off:], e.Desc)
		binary.BigEndian.PutUint32(b[off+descSize:], e.RouteTTL)
		off += entrySize
	}
	return b
}

func randomDesc(rng *rand.Rand) view.Descriptor {
	return view.Descriptor{
		ID:    ident.NodeID(rng.Uint64()),
		Addr:  ident.Endpoint{IP: ident.IP(rng.Uint32()), Port: uint16(rng.Intn(1 << 16))},
		Class: ident.NATClass(rng.Intn(ident.NumClasses)),
		Age:   rng.Uint32(),
	}
}

// shuffleMsg is a REQUEST as a peer with a 15-entry view ships it: itself plus
// half its view, 8 entries.
func shuffleMsg() *Message {
	rng := rand.New(rand.NewSource(8))
	m := &Message{Kind: KindRequest, Src: randomDesc(rng), Dst: randomDesc(rng)}
	m.Via = m.Src
	for i := 0; i < 8; i++ {
		m.Entries = append(m.Entries, ViewEntry{Desc: randomDesc(rng), RouteTTL: rng.Uint32()})
	}
	return m
}

// codecMessages are the messages the package's tests build: sampleMsg under
// every kind (PING and PONG entry-less, as the protocol sends them), the
// 8-entry shuffle, the 16-entry paper-scale request and a spread of random
// ones up to 40 entries.
func codecMessages() []*Message {
	var out []*Message
	for k := KindRequest; k <= KindPong; k++ {
		m := sampleMsg()
		m.Kind = k
		if k == KindPing || k == KindPong {
			m.Entries = nil
		}
		out = append(out, m)
	}
	out = append(out, shuffleMsg(), &Message{Kind: KindRequest, Entries: make([]ViewEntry, 16)})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		m := &Message{Kind: Kind(1 + rng.Intn(5)), Hops: uint8(rng.Intn(256)), Src: randomDesc(rng), Dst: randomDesc(rng), Via: randomDesc(rng)}
		for n := rng.Intn(40); n > 0; n-- {
			m.Entries = append(m.Entries, ViewEntry{Desc: randomDesc(rng), RouteTTL: rng.Uint32()})
		}
		out = append(out, m)
	}
	return out
}

// dirtyMessage is a decode target that has seen use: every field set,
// including the in-memory causal stamp, and 8 entries of spare capacity.
func dirtyMessage() *Message {
	m := shuffleMsg()
	m.Hops, m.OriginSeq, m.PathHash = 9, 77, 0xfeedface
	return m
}

// sameMessage compares two decoded messages; a nil and an empty Entries are
// the same message (a reused target keeps its backing array).
func sameMessage(a, b *Message) bool {
	return a.Kind == b.Kind && a.Hops == b.Hops && a.Src == b.Src && a.Dst == b.Dst && a.Via == b.Via &&
		a.OriginSeq == b.OriginSeq && a.PathHash == b.PathHash && slices.Equal(a.Entries, b.Entries)
}

func TestAppendMarshalMatchesReference(t *testing.T) {
	prefix := []byte("prefix")
	var reused []byte
	for i, m := range codecMessages() {
		want := referenceMarshal(m)
		got, err := m.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("message %d (%v): AppendMarshal differs from the reference encoder", i, m)
		}
		if plain, err := m.Marshal(); err != nil || !bytes.Equal(plain, want) {
			t.Errorf("message %d (%v): Marshal differs from the reference encoder (err %v)", i, m, err)
		}
		// Appending keeps what is already there; a reused buffer holds no
		// trace of the previous, possibly longer, message.
		if got, _ = m.AppendMarshal(append([]byte(nil), prefix...)); !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
			t.Errorf("message %d: AppendMarshal onto a prefix = %x", i, got)
		}
		if reused, _ = m.AppendMarshal(reused[:0]); !bytes.Equal(reused, want) {
			t.Errorf("message %d: AppendMarshal into a reused buffer differs", i)
		}
	}
	// A rejected message leaves the buffer as it was.
	bad := sampleMsg()
	bad.Kind = 0
	if got, err := bad.AppendMarshal(prefix); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("invalid kind: got %q, %v", got, err)
	}
}

// Decoding into a message that was used before gives what a fresh Unmarshal
// gives, for every kind — in particular an entry-less PING decoded right after
// an 8-entry REQUEST carries no stale entries, and the causal stamp is zero.
func TestUnmarshalIntoReusedMessage(t *testing.T) {
	reused := dirtyMessage()
	for i, m := range codecMessages() {
		b := referenceMarshal(m)
		fresh, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("message %d: Unmarshal: %v", i, err)
		}
		for _, target := range []*Message{reused, dirtyMessage()} {
			if err := UnmarshalInto(target, b); err != nil {
				t.Fatalf("message %d: UnmarshalInto: %v", i, err)
			}
			if !sameMessage(target, fresh) {
				t.Errorf("message %d: reused decode\n got %+v\nwant %+v", i, target, fresh)
			}
		}
	}
	ping := sampleMsg()
	ping.Kind, ping.Entries = KindPing, nil
	target := dirtyMessage()
	if err := UnmarshalInto(target, referenceMarshal(ping)); err != nil {
		t.Fatal(err)
	}
	if len(target.Entries) != 0 || target.OriginSeq != 0 || target.PathHash != 0 {
		t.Errorf("PING after REQUEST kept %d entries, stamp (%d, %x)", len(target.Entries), target.OriginSeq, target.PathHash)
	}
}

func TestCodecAllocatesNothing(t *testing.T) {
	data := referenceMarshal(shuffleMsg())
	var m Message
	buf := make([]byte, 0, len(data))
	run := func() {
		if err := UnmarshalInto(&m, data); err != nil {
			t.Fatal(err)
		}
		var err error
		if buf, err = m.AppendMarshal(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows m.Entries once
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Errorf("UnmarshalInto + AppendMarshal of an 8-entry message allocate %v times, want 0", allocs)
	}
	if !bytes.Equal(buf, data) {
		t.Error("re-encoded bytes differ")
	}
}

// FuzzUnmarshal feeds the decoder foreign bytes: it must never panic, must
// decide the same way into a zero and into a used message and produce the same
// message, must wrap ErrMalformed when it refuses, and every input it accepts
// must re-encode to the very same bytes (the encoding is canonical).
func FuzzUnmarshal(f *testing.F) {
	for _, m := range codecMessages()[:7] {
		f.Add(referenceMarshal(m))
	}
	good := referenceMarshal(sampleMsg())
	f.Add([]byte(nil))
	f.Add(good[:10])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		var zero Message
		errZero := UnmarshalInto(&zero, b)
		used := dirtyMessage()
		errUsed := UnmarshalInto(used, b)
		if (errZero == nil) != (errUsed == nil) {
			t.Fatalf("zero target: %v, used target: %v", errZero, errUsed)
		}
		if errZero != nil {
			if !errors.Is(errZero, ErrMalformed) || !errors.Is(errUsed, ErrMalformed) {
				t.Fatalf("errors do not wrap ErrMalformed: %v / %v", errZero, errUsed)
			}
			return
		}
		if !sameMessage(&zero, used) {
			t.Fatalf("decodes differ:\n zero %+v\n used %+v", &zero, used)
		}
		out, err := used.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("re-encoded bytes differ:\n in  %x\n out %x", b, out)
		}
	})
}
