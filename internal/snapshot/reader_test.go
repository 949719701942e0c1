package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
)

// memFile is an in-memory srcFile that splits, fails and swaps its reads on
// demand: what a disk, a network mount or a concurrent writer can do to the
// two passes of a Reader.
type memFile struct {
	data []byte
	off  int
	// reads, when non-empty, caps the size of each pass's successive Read
	// calls (cycled), so chunks end wherever a test wants them to.
	reads []int
	nRead int
	// failAt, when positive, fails the Read that would deliver byte failAt of
	// the pass whose number (1 or 2) is failPass.
	failAt, failPass int
	// onPass2 runs when the second pass rewinds the file.
	onPass2 func(f *memFile)
	seeks   int
	closed  bool
}

func (f *memFile) Read(b []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, io.EOF
	}
	n := min(len(b), len(f.data)-f.off)
	if len(f.reads) > 0 {
		n = min(n, f.reads[f.nRead%len(f.reads)])
		f.nRead++
	}
	if f.failAt > 0 && f.seeks == f.failPass && f.off+n > f.failAt {
		return 0, errInjected
	}
	copy(b, f.data[f.off:f.off+n])
	f.off += n
	return n, nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	if off != 0 || whence != io.SeekStart {
		return 0, fmt.Errorf("memFile: unexpected Seek(%d, %d)", off, whence)
	}
	if f.seeks++; f.seeks == 2 && f.onPass2 != nil {
		f.onPass2(f)
	}
	f.off, f.nRead = 0, 0
	return 0, nil
}

func (f *memFile) Close() error {
	f.closed = true
	return nil
}

// openMem runs Open's first pass over f.
func openMem(f *memFile) (*Reader, error) {
	return open("mem", func(string) (srcFile, error) { return f, nil })
}

// fieldsPayload encodes a run of every field kind around one blob, and
// readFields decodes it back into a transcript: the same transcript from any
// decoder over the same bytes.
func fieldsPayload(blob []byte) []byte {
	var enc Encoder
	enc.Section("head")
	enc.U8(7)
	enc.Bool(true)
	enc.U16(0xbeef)
	enc.U32(0xdeadbeef)
	enc.U64(1 << 60)
	enc.I64(-5)
	enc.F64(2.5)
	enc.Bytes32(blob)
	enc.Desc(view.Descriptor{ID: 9, Addr: ident.Endpoint{IP: 0x0a000009, Port: 77}, Class: ident.NATClass(2), Age: 5})
	enc.U32(3)
	for i := 0; i < 3; i++ {
		enc.U64(uint64(i))
	}
	enc.Section("tail")
	return enc.Bytes()
}

func readFields(dec *Decoder) string {
	var b bytes.Buffer
	dec.Section("head")
	fmt.Fprint(&b, dec.U8(), dec.Bool(), dec.U16(), dec.U32(), dec.U64(), dec.I64(), dec.F64())
	fmt.Fprintf(&b, " %x", dec.Bytes32()) // printed before the next read: the bytes die with it
	fmt.Fprintf(&b, " %+v", dec.Desc())
	for i, n := 0, dec.Count(8); i < n; i++ {
		fmt.Fprint(&b, " ", dec.U64())
	}
	dec.Section("tail")
	fmt.Fprint(&b, " ", dec.Finish())
	return b.String()
}

// TestReaderSplitsAnywhere cuts the second pass's chunks at every offset of a
// payload holding every field kind and a blob — so each field and the blob are
// split across a chunk boundary at every position once — and at every small
// uniform chunk size, and requires the in-memory decoder's transcript each
// time.
func TestReaderSplitsAnywhere(t *testing.T) {
	payload := fieldsPayload([]byte("a blob that is longer than any field"))
	want := readFields(NewDecoder(payload))
	if !bytes.HasSuffix([]byte(want), []byte("<nil>")) {
		t.Fatalf("in-memory transcript does not finish cleanly: %s", want)
	}
	file := Encode(payload)
	hdr := len(Magic) + 8
	var shapes [][]int
	for cut := 1; cut < len(payload); cut++ {
		shapes = append(shapes, []int{hdr, cut, len(file)})
	}
	for size := 1; size <= 9; size++ {
		shapes = append(shapes, []int{size})
	}
	for _, reads := range shapes {
		f := &memFile{data: file, reads: reads}
		r, err := openMem(f)
		if err != nil {
			t.Fatalf("reads %v: Open: %v", reads, err)
		}
		if got := readFields(r.Decoder()); got != want {
			t.Fatalf("reads %v: streamed transcript\n%s\nin-memory transcript\n%s", reads, got, want)
		}
		if err := r.Close(); err != nil || !f.closed {
			t.Fatalf("reads %v: Close = %v, file closed = %v", reads, err, f.closed)
		}
	}
}

// TestReaderStreamsWriterFiles reads back, through real files and real
// chunkSize reads, what the Writer tests write — several chunks, a blob of
// 2.5 chunks, a blob straddling a boundary — and compares every payload byte
// with the in-memory encoding.
func TestReaderStreamsWriterFiles(t *testing.T) {
	for _, shape := range streamShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var mem Encoder
			shape.write(&mem)
			path := filepath.Join(t.TempDir(), "world.snap")
			w, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			shape.write(w.Encoder())
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}

			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dec := r.Decoder()
			if dec.Remaining() != mem.Len() {
				t.Fatalf("Remaining = %d before the first read, payload is %d bytes", dec.Remaining(), mem.Len())
			}
			// Odd-sized takes, so reads straddle the 1 MiB chunk boundaries.
			var got []byte
			for dec.Remaining() > 0 {
				got = append(got, dec.take(min(dec.Remaining(), 7001))...)
			}
			if !bytes.Equal(got, mem.Bytes()) {
				t.Fatalf("streamed %d bytes differ from the %d encoded", len(got), mem.Len())
			}
			if err := dec.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
		})
	}
}

// TestOpenRejectsBeforeDecoding damages a three-chunk file in its first
// chunk, on a chunk boundary, in its last chunk and in its trailer, truncates
// it in each of those places, and appends to it: Open must give the error
// Decode gives the same bytes — so nothing is ever decoded from such a file.
func TestOpenRejectsBeforeDecoding(t *testing.T) {
	payload := make([]byte, 2*chunkSize+chunkSize/2)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	file := Encode(payload)
	hdr := len(Magic) + 8
	places := map[string]int{
		"first-chunk":     hdr + 10,
		"boundary-before": hdr + chunkSize - 1,
		"boundary-after":  hdr + chunkSize,
		"last-chunk":      hdr + len(payload) - 3,
		"trailer":         len(file) - 5,
	}
	check := func(t *testing.T, data []byte, want error) {
		t.Helper()
		if _, err := Decode(data); !errors.Is(err, want) {
			t.Fatalf("Decode = %v, want %v: the case is mislabelled", err, want)
		}
		path := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(path); !errors.Is(err, want) {
			if err == nil {
				r.Close()
			}
			t.Fatalf("Open = %v, want %v", err, want)
		}
	}
	for name, at := range places {
		at := at
		t.Run("flip-"+name, func(t *testing.T) {
			bad := append([]byte(nil), file...)
			bad[at] ^= 0x10
			check(t, bad, ErrChecksum)
		})
		t.Run("cut-"+name, func(t *testing.T) { check(t, file[:at], ErrTruncated) })
	}
	t.Run("trailing-bytes", func(t *testing.T) {
		check(t, append(append([]byte(nil), file...), "junk"...), ErrCorrupt)
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte(nil), file...)
		copy(bad, "nylon-snap/v9\n")
		check(t, bad, ErrVersion)
	})
	t.Run("oversized-length", func(t *testing.T) {
		bad := append([]byte(nil), file...)
		bad[len(Magic)] = 0xff
		check(t, bad, ErrTruncated)
	})
}

// TestOpenTruncationAtEveryByte is TestEnvelopeTruncation through Open.
func TestOpenTruncationAtEveryByte(t *testing.T) {
	file := Encode([]byte("the quick brown fox"))
	for n := 0; n < len(file); n++ {
		if _, err := openMem(&memFile{data: file[:n], reads: []int{5}}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncated to %d/%d bytes: err = %v, want ErrTruncated", n, len(file), err)
		}
	}
}

// u64Payload encodes n consecutive integers starting at first.
func u64Payload(first, n int) []byte {
	var enc Encoder
	for i := 0; i < n; i++ {
		enc.U64(uint64(first + i))
	}
	return enc.Bytes()
}

// TestReaderRejectsFileChangedBetweenPasses swaps the file under a Reader
// after Open verified it. Whatever the second pass then finds — other bytes
// under the old checksum, another valid snapshot of the same or another
// length, a shorter file — the decoder must end in a typed error, at the
// latest in Finish, and never report success.
func TestReaderRejectsFileChangedBetweenPasses(t *testing.T) {
	const n = 64
	file := Encode(u64Payload(0, n))
	flipped := append([]byte(nil), file...)
	flipped[len(Magic)+8+3*8+7] ^= 1 // the fourth integer: still decodes
	for _, tc := range []struct {
		name string
		swap []byte
		want error
	}{
		{"flipped-bit", flipped, ErrChecksum},
		{"other-snapshot-same-length", Encode(u64Payload(1000, n)), ErrChecksum},
		{"other-snapshot-longer", Encode(u64Payload(0, n+1)), ErrChecksum},
		{"other-snapshot-shorter", Encode(u64Payload(0, n-1)), ErrChecksum},
		{"truncated", file[:len(file)/2], ErrTruncated},
		{"appended", append(append([]byte(nil), file...), 0), ErrCorrupt},
		{"foreign", []byte("GIF89a-definitely-not-a-snapshot"), ErrVersion},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := &memFile{data: file, reads: []int{100}, onPass2: func(f *memFile) { f.data = tc.swap }}
			r, err := openMem(f)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dec := r.Decoder()
			for i := 0; i < n; i++ {
				dec.U64()
			}
			if err := dec.Finish(); !errors.Is(err, tc.want) {
				t.Fatalf("Finish = %v, want %v", err, tc.want)
			}
			if dec.Err() == nil {
				t.Error("the error is not sticky")
			}
		})
	}
}

// TestReaderReadErrors injects a read failure into each pass. The first
// pass's surfaces from Open; the second's becomes the decoder's sticky error
// at the chunk it hit — as the I/O error it is, not as a verdict on the file.
func TestReaderReadErrors(t *testing.T) {
	const n = 64
	file := Encode(u64Payload(0, n))
	typed := func(err error) bool {
		return errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion)
	}
	for _, at := range []int{3, len(Magic) + 2, 200, len(file) - 10} {
		f := &memFile{data: file, reads: []int{64}, failAt: at, failPass: 1}
		if _, err := openMem(f); !errors.Is(err, errInjected) || typed(err) {
			t.Errorf("first pass failing at byte %d: Open = %v, want the injected failure", at, err)
		}
	}

	f := &memFile{data: file, reads: []int{64}, failAt: 200, failPass: 2}
	r, err := openMem(f)
	if err != nil {
		t.Fatal(err)
	}
	dec := r.Decoder()
	read := 0
	for dec.Err() == nil && read < n {
		if got := dec.U64(); dec.Err() == nil && got != uint64(read) {
			t.Fatalf("integer %d decoded as %d", read, got)
		}
		read++
	}
	if err := dec.Finish(); !errors.Is(err, errInjected) || typed(err) {
		t.Fatalf("Finish = %v, want the injected failure", err)
	}
	if read >= n || read < 10 {
		t.Errorf("decoded %d integers before a failure at byte 200", read)
	}
	if dec.U64() != 0 || dec.Bytes32() != nil {
		t.Error("reads after the failure return data")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderCloseAbandons closes a Reader whose decoder stopped early — a
// caller bailing out on a config mismatch — and requires Close to return: the
// reading goroutine, blocked handing over a chunk nobody wants, must end.
func TestReaderCloseAbandons(t *testing.T) {
	payload := make([]byte, 3*chunkSize)
	path := filepath.Join(t.TempDir(), "world.snap")
	if err := WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{0, 1, 5} {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := r.Decoder()
		for i := 0; i < reads; i++ {
			dec.U64()
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-r.done:
		default:
			t.Fatal("Close returned before the reading goroutine ended")
		}
	}
}

// TestStreamingCountBound pins what a streaming decoder measures a count
// against: the payload the envelope declares and the first pass found, not
// the chunk in hand. A hostile count fails as it does in memory; an honest
// one far larger than any chunk passes.
func TestStreamingCountBound(t *testing.T) {
	stream := func(payload []byte) *Decoder {
		r, err := openMem(&memFile{data: Encode(payload), reads: []int{16}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r.Decoder()
	}

	var enc Encoder
	enc.U32(1 << 30)
	enc.U64(0)
	dec := stream(enc.Bytes())
	if n := dec.Count(8); n != 0 || !errors.Is(dec.Err(), ErrCorrupt) {
		t.Errorf("hostile count: n = %d, err = %v", n, dec.Err())
	}

	const honest = 1000 // 8000 bytes behind 16-byte chunks
	enc = Encoder{}
	enc.U32(honest)
	enc.raw(u64Payload(0, honest))
	dec = stream(enc.Bytes())
	if n := dec.Count(8); n != honest || dec.Err() != nil {
		t.Fatalf("honest count: n = %d, err = %v", n, dec.Err())
	}
	for i := 0; i < honest; i++ {
		if got := dec.U64(); got != uint64(i) {
			t.Fatalf("element %d = %d", i, got)
		}
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}

	// One element more than the declared payload holds: rejected, although
	// the file on disk is longer than the payload (the trailer follows).
	enc = Encoder{}
	enc.U32(3)
	enc.raw(u64Payload(0, 2))
	dec = stream(enc.Bytes())
	if n := dec.Count(8); n != 0 || !errors.Is(dec.Err(), ErrCorrupt) {
		t.Errorf("count past the declared payload: n = %d, err = %v", n, dec.Err())
	}
}
