package snapshot

import (
	"repro/internal/ident"
	"repro/internal/view"
)

// Codec walks payload state in one of two directions over the one field list
// a layer writes. Capturing, every field method writes its argument through
// an Encoder and returns it; restoring, it ignores the argument and returns
// what a Decoder reads. A layer therefore states each field once —
//
//	s.NoRoute = c.U64(s.NoRoute)
//
// — and its writer and reader cannot disagree on the number, order or width
// of the fields. Only what is one-directional by nature branches on
// Restoring: validating bytes the program did not write, constructing before
// filling, sorting map-derived data before it is written, re-arming closures.
//
// One Codec serves a whole capture or restore; it is a view of its Encoder or
// Decoder and holds no state of its own.
type Codec struct {
	enc *Encoder
	dec *Decoder
}

// Codec returns the capturing walk over e.
func (e *Encoder) Codec() *Codec { return &Codec{enc: e} }

// Codec returns the restoring walk over d.
func (d *Decoder) Codec() *Codec { return &Codec{dec: d} }

// Codec returns the capturing walk that streams into the file; see Encoder.
func (w *Writer) Codec() *Codec { return w.enc.Codec() }

// Codec starts the second pass and returns the restoring walk it feeds; see
// Decoder.
func (r *Reader) Codec() *Codec { return r.Decoder().Codec() }

// Restoring reports the direction: true when fields are read from a payload.
func (c *Codec) Restoring() bool { return c.dec != nil }

// Err returns the Decoder's sticky error; a capture has none.
func (c *Codec) Err() error {
	if c.dec != nil {
		return c.dec.err
	}
	return nil
}

// Fail rejects the payload being restored, see Decoder.Fail. A capture has no
// payload to reject: call it under Restoring only.
func (c *Codec) Fail(format string, args ...any) { c.dec.Fail(format, args...) }

// Finish ends a restore, see Decoder.Finish. Like Fail it is for the restoring
// side only: a capture ends with its Writer's Commit.
func (c *Codec) Finish() error { return c.dec.Finish() }

// Section writes or verifies a section tag.
func (c *Codec) Section(tag string) {
	if c.dec != nil {
		c.dec.Section(tag)
	} else {
		c.enc.Section(tag)
	}
}

// Count walks the uint32 element count of a sequence: n when capturing, when
// restoring the stored count checked against the remaining payload, of which
// every element takes at least minElemSize bytes (see Decoder.Count).
func (c *Codec) Count(n, minElemSize int) int {
	if c.dec != nil {
		return c.dec.Count(minElemSize)
	}
	c.enc.U32(uint32(n))
	return n
}

// walk is every field method: put v when capturing, get its stored value when
// restoring. The method expressions passed to it are constants, so after
// inlining each field method is the direction test and one direct call.
func walk[T any](c *Codec, v T, put func(*Encoder, T), get func(*Decoder) T) T {
	if c.dec != nil {
		return get(c.dec)
	}
	put(c.enc, v)
	return v
}

// U8 walks one byte.
func (c *Codec) U8(v uint8) uint8 { return walk(c, v, (*Encoder).U8, (*Decoder).U8) }

// Bool walks a bool.
func (c *Codec) Bool(v bool) bool { return walk(c, v, (*Encoder).Bool, (*Decoder).Bool) }

// U16 walks a uint16.
func (c *Codec) U16(v uint16) uint16 { return walk(c, v, (*Encoder).U16, (*Decoder).U16) }

// U32 walks a uint32.
func (c *Codec) U32(v uint32) uint32 { return walk(c, v, (*Encoder).U32, (*Decoder).U32) }

// U64 walks a uint64.
func (c *Codec) U64(v uint64) uint64 { return walk(c, v, (*Encoder).U64, (*Decoder).U64) }

// I64 walks an int64.
func (c *Codec) I64(v int64) int64 { return walk(c, v, (*Encoder).I64, (*Decoder).I64) }

// F64 walks a float64.
func (c *Codec) F64(v float64) float64 { return walk(c, v, (*Encoder).F64, (*Decoder).F64) }

// Bytes32 walks a length-prefixed byte string. Restoring, the result is valid
// until the next read (see Decoder.Bytes32).
func (c *Codec) Bytes32(b []byte) []byte {
	return walk(c, b, (*Encoder).Bytes32, (*Decoder).Bytes32)
}

// Endpoint walks an ident.Endpoint.
func (c *Codec) Endpoint(ep ident.Endpoint) ident.Endpoint {
	return walk(c, ep, (*Encoder).Endpoint, (*Decoder).Endpoint)
}

// Desc walks a view.Descriptor.
func (c *Codec) Desc(d view.Descriptor) view.Descriptor {
	return walk(c, d, (*Encoder).Desc, (*Decoder).Desc)
}
