package snapshot

import (
	"bytes"
	"fmt"
	"testing"
)

// drive runs a decoder through the reads script spells out — one byte per
// read, every method of the Decoder reachable — and returns a transcript of
// every value, every Remaining and every error on the way, Finish included.
// It fails the test if an error, once set, changes or lets a read return data.
func drive(t *testing.T, dec *Decoder, script []byte) string {
	var b bytes.Buffer
	var stuck error
	for i := 0; i < len(script); i++ {
		var zero bool
		switch op := script[i] % 13; op {
		case 0:
			v := dec.U8()
			zero = v == 0
			fmt.Fprint(&b, "u8:", v)
		case 1:
			v := dec.Bool()
			zero = !v
			fmt.Fprint(&b, "b:", v)
		case 2:
			v := dec.U16()
			zero = v == 0
			fmt.Fprint(&b, "u16:", v)
		case 3:
			v := dec.U32()
			zero = v == 0
			fmt.Fprint(&b, "u32:", v)
		case 4:
			v := dec.U64()
			zero = v == 0
			fmt.Fprint(&b, "u64:", v)
		case 5:
			v := dec.I64()
			zero = v == 0
			fmt.Fprint(&b, "i64:", v)
		case 6:
			v := dec.F64()
			zero = v == 0
			fmt.Fprint(&b, "f64:", v)
		case 7:
			v := dec.Bytes32()
			zero = len(v) == 0
			fmt.Fprintf(&b, "blob:%x", v)
		case 8, 9:
			// The element size comes from the script too, 0 included.
			elem := 0
			if i++; i < len(script) {
				elem = int(script[i] % 32)
			}
			v := dec.Count(elem)
			zero = v == 0
			fmt.Fprint(&b, "n:", v)
		case 10:
			dec.Section("sect")
			zero = true
			fmt.Fprint(&b, "sect")
		case 11:
			v := dec.Endpoint()
			zero = v.IP == 0 && v.Port == 0
			fmt.Fprintf(&b, "ep:%v", v)
		case 12:
			v := dec.Desc()
			zero = v.ID == 0 && v.Age == 0
			fmt.Fprintf(&b, "d:%+v", v)
		}
		fmt.Fprintf(&b, " left:%d err:%v\n", dec.Remaining(), dec.Err())
		if stuck != nil {
			if dec.Err() != stuck {
				t.Fatalf("read %d replaced the sticky error %q by %q", i, stuck, dec.Err())
			}
			if !zero {
				t.Fatalf("read %d returned data after the error %q:\n%s", i, stuck, b.String())
			}
		}
		stuck = dec.Err()
	}
	fmt.Fprintf(&b, "finish:%v", dec.Finish())
	return b.String()
}

// FuzzDecoder feeds arbitrary payloads to arbitrary read scripts through the
// in-memory decoder and through a Reader whose second pass is cut into
// arbitrary chunks. Neither may panic, errors must be sticky, and the two
// must agree on every value, every count of remaining bytes and every error
// message: chunking is invisible. Every payload arrives under a valid
// envelope (the Reader's first pass would stop anything else), so this is
// the decoder meeting a hostile writer, not a damaged file.
//
// Arguments: the payload; the read script (see drive); the sizes, less one,
// of the second pass's successive reads, cycled.
func FuzzDecoder(f *testing.F) {
	// The seed corpus is committed under testdata/fuzz/FuzzDecoder, one file
	// per case and named after it: every field kind read in and out of order,
	// hostile counts and blob lengths, a truncated payload, wrong tags.
	f.Fuzz(func(t *testing.T, payload, script, splits []byte) {
		if len(script) > 1<<12 {
			script = script[:1<<12]
		}
		want := drive(t, NewDecoder(payload), script)

		reads := make([]int, len(splits))
		for i, s := range splits {
			reads[i] = 1 + int(s)
		}
		r, err := openMem(&memFile{data: Encode(payload), reads: reads})
		if err != nil {
			t.Fatalf("Open of a valid envelope: %v", err)
		}
		got := drive(t, r.Decoder(), script)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("reads of %v bytes decoded another transcript\nstreamed:\n%s\nin memory:\n%s", reads, got, want)
		}
	})
}
