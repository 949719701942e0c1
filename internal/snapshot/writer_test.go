package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ident"
	"repro/internal/view"
)

// streamShapes are payload recipes aimed at the streaming Encoder's edges:
// each writes the same fields through whichever Encoder it is handed.
var streamShapes = []struct {
	name  string
	write func(enc *Encoder)
}{
	{"empty", func(enc *Encoder) {}},
	{"one-section", func(enc *Encoder) { enc.Section("only") }},
	{"exactly-one-chunk", func(enc *Encoder) {
		for i := 0; i < chunkSize/8; i++ {
			enc.U64(uint64(i))
		}
	}},
	{"mixed-fields-3.5-chunks", func(enc *Encoder) {
		// Field widths of 1, 2, 4, 8 and 15 bytes drift against the chunk
		// size, so spills land after every kind of field.
		d := view.Descriptor{ID: 9, Addr: ident.Endpoint{IP: 0x0a000009, Port: 77}, Class: ident.NATClass(2), Age: 5}
		for i := 0; enc.Len() < 3*chunkSize+chunkSize/2; i++ {
			enc.Bool(i%3 == 0)
			enc.U16(uint16(i))
			enc.U32(uint32(i) * 2654435761)
			enc.I64(int64(-i))
			enc.F64(float64(i) / 7)
			d.ID = ident.NodeID(i)
			enc.Desc(d)
			if i%1000 == 0 {
				enc.Section("mark")
			}
		}
	}},
	{"blob-straddles-boundary", func(enc *Encoder) {
		for enc.Len() < chunkSize-7 {
			enc.U8(0x5a)
		}
		// Four length bytes fit the first chunk; the body is split 3 + 61.
		enc.Bytes32(bytes.Repeat([]byte{0xc3}, 64))
		enc.U64(42)
	}},
	{"blob-of-2.5-chunks", func(enc *Encoder) {
		enc.U32(7)
		blob := make([]byte, 2*chunkSize+chunkSize/2)
		for i := range blob {
			blob[i] = byte(i * 31)
		}
		enc.Bytes32(blob)
		enc.Bytes32(nil)
		enc.U8(1)
	}},
}

// TestWriterMatchesEncode pins the streaming path to the in-memory one: the
// same fields through a Writer's Encoder yield the file Encode builds from a
// zero Encoder's Bytes — same length field, same checksum, no temp left.
func TestWriterMatchesEncode(t *testing.T) {
	for _, shape := range streamShapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			var mem Encoder
			shape.write(&mem)

			dir := t.TempDir()
			path := filepath.Join(dir, "world.snap")
			w, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			shape.write(w.Encoder())
			if got := w.Encoder().Len(); got != mem.Len() {
				t.Errorf("streaming Len = %d, in-memory Len = %d", got, mem.Len())
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}

			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, Encode(mem.Bytes())) {
				t.Fatalf("streamed file (%d bytes) differs from Encode of the %d-byte payload", len(got), mem.Len())
			}
			payload, err := ReadFile(path)
			if err != nil || !bytes.Equal(payload, mem.Bytes()) {
				t.Fatalf("ReadFile of the streamed file: %d bytes, %v", len(payload), err)
			}
			assertOnly(t, dir, "world.snap")
		})
	}
}

// TestWriteFileLargePayload drives WriteFile (a thin caller of the same
// Writer) across several chunks.
func TestWriteFileLargePayload(t *testing.T) {
	payload := make([]byte, 3*chunkSize+5)
	for i := range payload {
		payload[i] = byte(i ^ i>>8)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "big.snap")
	if err := WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, Encode(payload)) {
		t.Fatal("WriteFile's bytes differ from Encode's")
	}
	assertOnly(t, dir, "big.snap")
}

// assertOnly requires dir to hold exactly the named entries.
func assertOnly(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if len(got) != len(want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("directory holds %v, want %v", got, want)
		}
	}
}

// faultyFile is a real temp file that fails on demand.
type faultyFile struct {
	*os.File
	writes      int
	failWrite   int // fail the Nth Write call (1-based), 0 = never
	failWriteAt bool
	failClose   bool
}

var errInjected = errors.New("injected I/O failure")

func (f *faultyFile) Write(b []byte) (int, error) {
	f.writes++
	if f.writes == f.failWrite {
		// A short write, as a full disk produces.
		n, _ := f.File.Write(b[:len(b)/2])
		return n, errInjected
	}
	return f.File.Write(b)
}

func (f *faultyFile) WriteAt(b []byte, off int64) (int, error) {
	if f.failWriteAt {
		return 0, errInjected
	}
	return f.File.WriteAt(b, off)
}

func (f *faultyFile) Close() error {
	err := f.File.Close()
	if f.failClose {
		return errInjected
	}
	return err
}

// TestWriterFailuresLeaveNothing injects a failure into every step of the
// streaming write — the header, each chunk, the flushed tail, the checksum,
// the length back-patch, the close and the rename — and requires each to
// surface from Commit, to leave no temp file, and to leave the previous
// snapshot under the final name untouched.
func TestWriterFailuresLeaveNothing(t *testing.T) {
	// 2.5 chunks: Write calls are header, chunk, chunk, tail, checksum.
	shape := func(enc *Encoder) {
		for i := 0; enc.Len() < 2*chunkSize+chunkSize/2; i++ {
			enc.U64(uint64(i))
		}
	}
	const previous = "the previous snapshot"
	run := func(t *testing.T, fault faultyFile) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "world.snap")
		if err := WriteFile(path, []byte(previous)); err != nil {
			t.Fatal(err)
		}
		w, err := create(path, func(dir, pattern string) (tempFile, error) {
			f, err := os.CreateTemp(dir, pattern)
			if err != nil {
				return nil, err
			}
			fault.File = f
			return &fault, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		shape(w.Encoder())
		if err := w.Commit(); !errors.Is(err, errInjected) {
			t.Fatalf("Commit = %v, want the injected failure", err)
		}
		assertOnly(t, dir, "world.snap")
		if got, err := ReadFile(path); err != nil || string(got) != previous {
			t.Fatalf("previous snapshot after a failed write: %q, %v", got, err)
		}
	}
	for n, step := range []string{"header", "chunk-1", "chunk-2", "tail", "checksum"} {
		n := n
		t.Run("write-"+step, func(t *testing.T) { run(t, faultyFile{failWrite: n + 1}) })
	}
	t.Run("length-backpatch", func(t *testing.T) { run(t, faultyFile{failWriteAt: true}) })
	t.Run("close", func(t *testing.T) { run(t, faultyFile{failClose: true}) })

	t.Run("rename", func(t *testing.T) {
		// A non-empty directory squatting on the final name refuses the
		// rename without any help.
		dir := t.TempDir()
		path := filepath.Join(dir, "world.snap")
		if err := os.MkdirAll(filepath.Join(path, "squatter"), 0o755); err != nil {
			t.Fatal(err)
		}
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		shape(w.Encoder())
		if err := w.Commit(); err == nil {
			t.Fatal("Commit succeeded in renaming over a non-empty directory")
		}
		assertOnly(t, dir, "world.snap")
		assertOnly(t, path, "squatter")
	})

	t.Run("create", func(t *testing.T) {
		if _, err := Create(filepath.Join(t.TempDir(), "no-such-dir", "world.snap")); err == nil {
			t.Fatal("Create succeeded in a missing directory")
		}
	})
}

// TestStreamingEncoderBytesPanics pins that the in-memory accessor refuses a
// streaming Encoder, whose buffer holds only the unspilled tail.
func TestStreamingEncoderBytesPanics(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "world.snap"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Commit()
	defer func() {
		if recover() == nil {
			t.Error("Bytes on a streaming Encoder did not panic")
		}
	}()
	w.Encoder().Bytes()
}
