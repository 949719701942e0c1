package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// srcFile is what a Reader needs of the file it streams from (*os.File; tests
// substitute one that fails, splits its reads or changes on demand).
type srcFile interface {
	io.Reader
	io.Seeker
	io.Closer
}

// Reader streams one snapshot file in two passes, so that no whole-payload
// buffer ever exists and still not one payload byte is decoded before the
// whole envelope has verified.
//
// Open runs the first pass: the file goes through SHA-256 in chunkSize pieces
// and is rejected with the typed envelope error its damage calls for (see the
// package comment). One pass that
// decoded while it hashed could only report a damaged file after a world had
// been half-built from it — and bound to the caller's observability hub.
//
// Decoder starts the second pass: one goroutine reads the file again, over two
// alternating buffers, so reading and hashing chunk n+1 overlaps decoding
// chunk n. A buffer belongs to the Decoder from the moment it receives it
// until it asks for the next one; whatever the Decoder returned from it
// (Bytes32) dies then. The second pass hashes too and must arrive at the first
// pass's length and digest, so a file rewritten between the passes is rejected
// no later than Decoder.Finish. Close stops the goroutine and closes the file.
type Reader struct {
	dec Decoder
	f   srcFile
	// n and sum are the payload length and digest the first pass established;
	// verified marks that it has, which makes scan hold the second pass to
	// them.
	n        int
	sum      [sha256.Size]byte
	verified bool
	// buf is the first pass's buffer, handed on to the second.
	buf []byte
	// full carries filled buffers to the Decoder, free carries them back. The
	// reading goroutine sets err and then closes full when the pass is over;
	// closing stop ends it early, done closes once it has exited.
	full       chan []byte
	free       chan []byte
	stop, done chan struct{}
	err        error
}

// Open opens a snapshot file and verifies its whole envelope. Damage is
// reported with the typed envelope errors; a file that cannot be opened or
// read, with the I/O error.
func Open(path string) (*Reader, error) {
	return open(path, func(path string) (srcFile, error) { return os.Open(path) })
}

func open(path string, openFile func(path string) (srcFile, error)) (*Reader, error) {
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f}
	if err := r.scan(func(chunk []byte) []byte { return chunk }); err != nil {
		f.Close()
		return nil, err
	}
	r.verified = true
	return r, nil
}

// ReadFile reads and verifies a snapshot file in one pass and returns its
// payload whole; nothing is returned of a file that fails the envelope check.
// Open streams the same file without ever holding it.
func ReadFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &Reader{f: f}
	var payload []byte
	err = r.scan(func(chunk []byte) []byte {
		payload = append(payload, chunk...)
		return chunk
	})
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// errChanged reports a second pass that met other bytes than the first.
var errChanged = fmt.Errorf("%w: file changed while it was read", ErrChecksum)

// scan reads the envelope front to back — magic, declared length, payload,
// trailer, nothing after it, checksum — and is the one parser of it. Each
// piece of payload is passed to emit, which returns the buffer for the next
// piece, or nil to abandon the scan.
func (r *Reader) scan(emit func(chunk []byte) []byte) error {
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var hdr [len(Magic) + 8]byte
	got, err := io.ReadFull(r.f, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("snapshot: %w", err)
	}
	if got < len(Magic) {
		return ErrTruncated
	}
	if string(hdr[:len(Magic)]) != Magic {
		return ErrVersion
	}
	if got < len(hdr) {
		return ErrTruncated
	}
	declared := binary.BigEndian.Uint64(hdr[len(Magic):])
	if r.verified {
		if declared != uint64(r.n) {
			return errChanged
		}
	} else {
		// The buffer is sized before the file has proved to hold what it
		// declares: a hostile length costs at most one chunk.
		r.buf = make([]byte, min(declared, chunkSize))
	}

	sum := sha256.New()
	buf := r.buf
	for left := declared; left > 0; {
		m, err := r.f.Read(buf[:min(uint64(len(buf)), left)])
		left -= uint64(m)
		if err == io.EOF && left > 0 {
			return ErrTruncated
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("snapshot: %w", err)
		}
		if m == 0 {
			continue
		}
		sum.Write(buf[:m])
		if buf = emit(buf[:m]); buf == nil {
			return nil
		}
		buf = buf[:cap(buf)]
	}

	var trailer [sha256.Size]byte
	if _, err := io.ReadFull(r.f, trailer[:]); err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	} else if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if extra, err := io.Copy(io.Discard, r.f); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	} else if extra > 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, extra)
	}
	if string(sum.Sum(nil)) != string(trailer[:]) {
		return ErrChecksum
	}
	if r.verified {
		if trailer != r.sum {
			return errChanged
		}
		return nil
	}
	r.n, r.sum = int(declared), trailer
	return nil
}

// Decoder starts the second pass and returns the decoder it feeds. Call it
// once; the decoder is valid until Close.
func (r *Reader) Decoder() *Decoder {
	r.full = make(chan []byte)
	r.free = make(chan []byte, 2) // both buffers fit: handing one back never blocks
	r.stop, r.done = make(chan struct{}), make(chan struct{})
	if r.n > len(r.buf) {
		r.free <- make([]byte, len(r.buf))
	}
	go func() {
		defer close(r.done)
		defer close(r.full)
		r.err = r.scan(func(chunk []byte) []byte {
			select {
			case r.full <- chunk:
			case <-r.stop:
				return nil
			}
			select {
			case next := <-r.free:
				return next
			case <-r.stop:
				return nil
			}
		})
	}()
	r.dec = Decoder{total: r.n, src: r}
	return &r.dec
}

// Close ends the second pass, if one was started, and closes the file.
func (r *Reader) Close() error {
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	return r.f.Close()
}
