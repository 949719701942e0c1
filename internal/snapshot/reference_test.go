package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Encode and Decode are the whole-buffer envelope codec the package started
// with. They are the reference the streaming Writer and Reader are checked
// against: coded independently of both, over a payload held in memory.

// Encode wraps a payload in the envelope.
func Encode(payload []byte) []byte {
	out := make([]byte, 0, len(Magic)+8+len(payload)+sha256.Size)
	out = append(out, Magic...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

// Decode verifies the envelope and returns the payload.
func Decode(data []byte) ([]byte, error) {
	if len(data) < len(Magic) {
		return nil, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrVersion
	}
	rest := data[len(Magic):]
	if len(rest) < 8 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint64(rest)
	rest = rest[8:]
	if uint64(len(rest)) < n+sha256.Size {
		return nil, ErrTruncated
	}
	if uint64(len(rest)) > n+sha256.Size {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, uint64(len(rest))-n-sha256.Size)
	}
	payload := rest[:n]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(rest[n:]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
