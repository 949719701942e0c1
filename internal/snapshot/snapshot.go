// Package snapshot defines the nylon-snap/v1 checkpoint container and the
// deterministic binary encoding simulation state serializes through.
//
// A snapshot file is a fixed envelope around one opaque payload:
//
//	magic   "nylon-snap/v1\n"        (14 bytes, carries the format version)
//	length  uint64 big-endian        (payload length in bytes)
//	payload length bytes             (the world state, schema owned by exp)
//	sum     SHA-256 of the payload   (32 bytes)
//
// The envelope makes corruption detection exact and cheap: a truncated file
// fails the length check (ErrTruncated), a bit flip anywhere in the payload
// fails the checksum (ErrChecksum), and a future format bump fails the magic
// (ErrVersion). Readers verify the whole envelope before decoding a single
// payload byte, so a rejected snapshot can never half-mutate a world.
//
// Neither direction ever holds a whole payload: Writer streams the encoding
// into the file in fixed chunks, and Reader streams it back out — one pass
// that only hashes (the verification above), then one that feeds a Decoder
// chunk by chunk. ReadFile and NewDecoder are the in-memory forms of the same
// envelope check and the same Decoder, for payloads that are small or already
// in hand.
//
// The payload itself is written through Encoder and read back through
// Decoder: fixed-width big-endian integers, length-prefixed byte strings,
// and explicit section tags. Nothing in the encoding depends on map
// iteration order or pointer identity — callers must sort any map-derived
// data before encoding — so the same world state always serializes to the
// same bytes, whatever the worker or shard count of the writing run.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/ident"
	"repro/internal/view"
)

// Magic identifies the container format and its version.
const Magic = "nylon-snap/v1\n"

// Typed envelope errors. Restore paths surface them unwrapped through
// errors.Is so callers (the sweep's prefix cache, the CLIs) can distinguish
// "re-run from scratch" conditions from real I/O failures.
var (
	// ErrTruncated reports a file shorter than its envelope declares —
	// the classic kill-mid-write artifact.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrChecksum reports a payload whose SHA-256 does not match the
	// envelope's trailer.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrVersion reports an unknown magic string (a different format or a
	// version this binary does not speak).
	ErrVersion = errors.New("snapshot: unknown format version")
	// ErrCorrupt reports a payload that passed the checksum but does not
	// decode: a schema mismatch between writer and reader.
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// WriteFile writes an enveloped payload atomically through the streaming
// Writer: a kill mid-write leaves no partial snapshot under the final name.
func WriteFile(path string, payload []byte) error {
	w, err := Create(path)
	if err != nil {
		return err
	}
	w.enc.raw(payload)
	return w.Commit()
}

// chunkSize is how much payload a streaming Encoder buffers before spilling
// to its Writer, and how much a Reader reads at a time: large enough that
// hashing, write(2) and read(2) run at full speed, small enough that the
// transient heap of a capture or a resume stays a rounding error next to the
// world it serializes.
const chunkSize = 1 << 20

// tempFile is what a Writer needs of the file it streams into (*os.File;
// tests substitute one that fails on demand).
type tempFile interface {
	io.Writer
	io.WriterAt
	io.Closer
	Name() string
}

// Writer streams one snapshot file: the payload encoded through Encoder()
// leaves in chunkSize pieces, each folded into a running SHA-256 and appended
// to a temp file beside the final path, so no whole-payload buffer ever
// exists. One goroutine does the hashing and writing, fed by two alternating
// buffers, so encoding the next chunk overlaps the I/O of the last. Commit
// finishes the envelope and renames the temp file into place; it must be
// called, also to stop that goroutine. The bytes on disk are exactly the
// envelope of the package comment around the encoded payload.
//
// Write errors are sticky: after the first one the Encoder keeps accepting
// (and discarding) fields, and Commit reports the error and removes the temp
// file. A process killed before Commit's rename leaves only the temp file
// (see TempPattern), whose length field still holds the zero placeholder.
type Writer struct {
	enc  Encoder
	path string
	f    tempFile
	// sum and err belong to the writing goroutine until done closes.
	sum hash.Hash
	err error
	// full carries filled buffers to the writing goroutine, free carries
	// them back; done closes once full is closed and drained.
	full, free chan []byte
	done       chan struct{}
}

// TempPattern returns the os.CreateTemp pattern (also a valid glob) of the
// temp files a Writer for a file named base leaves in base's directory until
// Commit: dotfiles, so listings of finished snapshots never see them.
func TempPattern(base string) string { return "." + base + ".tmp*" }

// Create starts a snapshot file that Commit will publish at path.
func Create(path string) (*Writer, error) {
	return create(path, func(dir, pattern string) (tempFile, error) {
		return os.CreateTemp(dir, pattern)
	})
}

func create(path string, open func(dir, pattern string) (tempFile, error)) (*Writer, error) {
	f, err := open(filepath.Dir(path), TempPattern(filepath.Base(path)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	w := &Writer{
		path: path, f: f, sum: sha256.New(),
		full: make(chan []byte), free: make(chan []byte, 1), done: make(chan struct{}),
	}
	// A field is at most 8 bytes, so a buffer never grows past its chunk.
	w.enc = Encoder{buf: make([]byte, 0, chunkSize+8), out: w}
	w.free <- make([]byte, 0, chunkSize+8)
	// The payload length is only known at Commit: write a zero placeholder
	// now and patch it then.
	var hdr [len(Magic) + 8]byte
	copy(hdr[:], Magic)
	_, w.err = f.Write(hdr[:])
	go func() {
		defer close(w.done)
		for chunk := range w.full {
			if w.err == nil {
				w.sum.Write(chunk)
				_, w.err = w.f.Write(chunk)
			}
			w.free <- chunk
		}
	}()
	return w, nil
}

// Commit flushes the buffered tail, appends the checksum, patches the payload
// length into the header, closes the temp file and renames it to the final
// path. On any error — of this call or an earlier chunk — nothing appears
// under the final name and the temp file is removed.
func (w *Writer) Commit() error {
	w.enc.flush()
	close(w.full)
	<-w.done
	if w.err == nil {
		_, w.err = w.f.Write(w.sum.Sum(nil))
	}
	if w.err == nil {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(w.enc.spilled))
		_, w.err = w.f.WriteAt(n[:], int64(len(Magic)))
	}
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	if w.err == nil {
		w.err = os.Rename(w.f.Name(), w.path)
	}
	if w.err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("snapshot: %w", w.err)
	}
	return nil
}

// Encoder serializes payload state as fixed-width big-endian fields. The
// zero Encoder is ready to use and accumulates the payload in memory (Bytes
// returns it); the Encoder of a Writer spills to the snapshot file as it
// goes.
type Encoder struct {
	buf []byte
	// out, when non-nil, takes buf whenever it reaches chunkSize and hands
	// back an empty one; spilled counts the bytes already handed over.
	out     *Writer
	spilled int
}

// Bytes returns the encoded payload of an in-memory Encoder.
func (e *Encoder) Bytes() []byte {
	if e.out != nil {
		panic("snapshot: Bytes on a streaming Encoder")
	}
	return e.buf
}

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return e.spilled + len(e.buf) }

// spill runs after every append: a streaming Encoder hands a full buffer to
// its Writer and continues in the other one. Chunks therefore end on field
// boundaries; only raw byte strings are split across them.
func (e *Encoder) spill() {
	if e.out != nil && len(e.buf) >= chunkSize {
		e.flush()
	}
}

// flush is kept out of line so that spill, and with it every field method,
// stays within the inliner's budget: the per-field cost is one compare.
//
//go:noinline
func (e *Encoder) flush() {
	e.spilled += len(e.buf)
	e.out.full <- e.buf
	e.buf = (<-e.out.free)[:0]
}

// raw appends bytes verbatim, a streaming Encoder in pieces that fit its
// buffer.
func (e *Encoder) raw(b []byte) {
	if e.out == nil {
		e.buf = append(e.buf, b...)
		return
	}
	for len(b) > 0 {
		n := min(len(b), chunkSize-len(e.buf))
		e.buf = append(e.buf, b[:n]...)
		b = b[n:]
		e.spill()
	}
}

// Section writes a 4-byte tag delimiting a payload section. Tags cost
// nothing at scale and turn a writer/reader schema drift into an immediate
// ErrCorrupt naming the section, instead of garbage decoded fields.
func (e *Encoder) Section(tag string) {
	if len(tag) != 4 {
		panic("snapshot: section tags are exactly 4 bytes")
	}
	e.buf = append(e.buf, tag...)
	e.spill()
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) {
	e.buf = append(e.buf, v)
	e.spill()
}

// Bool writes a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 writes a big-endian uint16.
func (e *Encoder) U16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	e.spill()
}

// U32 writes a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	e.spill()
}

// U64 writes a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	e.spill()
}

// I64 writes a big-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes32 writes a length-prefixed byte string (uint32 length).
func (e *Encoder) Bytes32(b []byte) {
	e.U32(uint32(len(b)))
	e.raw(b)
}

// Endpoint writes an ident.Endpoint.
func (e *Encoder) Endpoint(ep ident.Endpoint) {
	e.U32(uint32(ep.IP))
	e.U16(ep.Port)
}

// Desc writes a view.Descriptor.
func (e *Encoder) Desc(d view.Descriptor) {
	e.U64(uint64(d.ID))
	e.Endpoint(d.Addr)
	e.U8(uint8(d.Class))
	e.U32(d.Age)
}

// Decoder reads fields written by Encoder. Errors are sticky: after the
// first failure every read returns the zero value and Err reports the
// failure, so decode paths can run straight-line and check once per
// section. A fresh Decoder over a verified payload never panics on hostile
// input — every read bounds-checks.
//
// NewDecoder reads a payload held in memory; the Decoder of a Reader is fed
// the payload of a snapshot file chunk by chunk as it goes. Both are the one
// type and take every field through the same code: a field that straddles two
// chunks is assembled in a scratch buffer, which an in-memory payload — one
// chunk — never needs.
type Decoder struct {
	buf []byte // the current chunk; the whole payload when src is nil
	off int    // read position within buf
	err error
	// total is the payload length: len(buf) in memory, the length a Reader's
	// first pass checked against the file otherwise. base counts the bytes of
	// the chunks already handed back to src.
	total int
	base  int
	// src, when non-nil, supplies the next chunk whenever buf runs out; spill
	// holds a field assembled across chunks.
	src   *Reader
	spill []byte
}

// NewDecoder returns a decoder over a payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload, total: len(payload)} }

// Err returns the sticky decode error, nil if none.
func (d *Decoder) Err() error { return d.err }

// pos returns the payload offset of the next unread byte.
func (d *Decoder) pos() int { return d.base + d.off }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return d.total - d.pos() }

// Finish reports success only if no decode error occurred and the payload
// was consumed exactly — and, on the Decoder of a Reader, only if the bytes
// decoded were the bytes the Reader's first pass verified.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d undecoded trailing bytes", ErrCorrupt, d.Remaining())
	}
	if d.src != nil {
		d.next() // the payload is exhausted: this only collects the verdict
	}
	return d.err
}

// Fail records a semantic decode failure (a value that parsed but cannot
// describe a valid world, e.g. an out-of-range enum). Like every decoder
// error it is sticky and wraps ErrCorrupt.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// take returns the next n payload bytes, nil after a failure. The slice is
// valid until the next read.
func (d *Decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf)-d.off < n {
		return d.takeAcross(n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// takeAcross is take's slow path: a failure, or a field that continues in
// the chunks to come.
func (d *Decoder) takeAcross(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("need %d bytes at offset %d, have %d", n, d.pos(), d.Remaining())
		return nil
	}
	out := d.spill[:0]
	for len(out) < n {
		if d.off == len(d.buf) && !d.next() {
			return nil
		}
		m := min(n-len(out), len(d.buf)-d.off)
		out = append(out, d.buf[d.off:d.off+m]...)
		d.off += m
	}
	d.spill = out
	return out
}

// next hands the exhausted chunk back to the Reader and waits for the one
// after it. Past the last chunk it reports false, with the Reader's verdict
// on the second pass (nil: the file still is what the first pass verified) as
// the decoder's error.
func (d *Decoder) next() bool {
	r := d.src
	if d.buf != nil {
		r.free <- d.buf
	}
	d.base += len(d.buf)
	d.off = 0
	d.buf = <-r.full
	if d.buf != nil {
		return true
	}
	if d.err = r.err; d.err == nil && d.Remaining() > 0 {
		d.fail("payload ended %d bytes early", d.Remaining())
	}
	return false
}

// Section consumes and verifies a section tag written by Encoder.Section.
func (d *Decoder) Section(tag string) {
	b := d.take(4)
	if b != nil && string(b) != tag {
		d.fail("section %q, want %q at offset %d", b, tag, d.pos()-4)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid bool byte at offset %d", d.pos()-1)
		return false
	}
}

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bytes32 reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffers and is valid until the next read: copy it to keep it.
func (d *Decoder) Bytes32() []byte {
	n := int(d.U32())
	return d.take(n)
}

// Count reads a uint32 element count and validates it against what the
// remaining payload could possibly hold (elemSize is a lower bound on the
// encoded size of one element), so hostile counts fail fast instead of
// driving huge allocations. On a streaming decoder the remaining payload is
// what the envelope declares and the Reader's first pass found in the file,
// not what happens to be buffered.
func (d *Decoder) Count(elemSize int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	// Divide, do not multiply: n*elemSize wraps where int is 32 bits.
	if n < 0 || n > d.Remaining()/elemSize {
		d.fail("count %d exceeds remaining payload (%d bytes)", n, d.Remaining())
		return 0
	}
	return n
}

// Endpoint reads an ident.Endpoint.
func (d *Decoder) Endpoint() ident.Endpoint {
	ip := ident.IP(d.U32())
	port := d.U16()
	return ident.Endpoint{IP: ip, Port: port}
}

// Desc reads a view.Descriptor.
func (d *Decoder) Desc() view.Descriptor {
	id := ident.NodeID(d.U64())
	addr := d.Endpoint()
	class := ident.NATClass(d.U8())
	age := d.U32()
	return view.Descriptor{ID: id, Addr: addr, Class: class, Age: age}
}
