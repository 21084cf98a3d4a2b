package iovec

import (
	"encoding/binary"
	"errors"
)

// Every fixed-width field of every wire and disk format in the stack is
// read and written here: big-endian, through one short-input rule.
// Formats are layouts of these fields; the owning packages say which
// fields and in what order (DESIGN.md "Wire formats").
var be = binary.BigEndian

// ErrShort is the sticky error of a Reader that ran out of input.
var ErrShort = errors.New("iovec: short input")

// Reader is a big-endian decoding cursor over a byte slice. A read that
// needs more bytes than remain returns zero values (nil for Next) and
// marks the reader short; every later read does the same, so a decoder
// reads its whole layout and checks Err once at the end. A Reader
// never panics and never allocates.
type Reader struct {
	rest  []byte
	short bool
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{rest: b} }

// Next returns the next n bytes as a view into the input (no copy), or
// nil when fewer than n remain or n is negative.
func (r *Reader) Next(n int) []byte {
	if r.short || n < 0 || n > len(r.rest) {
		r.short, r.rest = true, nil
		return nil
	}
	p := r.rest[:n:n]
	r.rest = r.rest[n:]
	return p
}

// fixed is Next for a fixed-width field: zeros when the input is short.
func (r *Reader) fixed(n int) []byte {
	if p := r.Next(n); p != nil {
		return p
	}
	return zeros[:n]
}

var zeros [8]byte

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.fixed(1)[0] }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 { return be.Uint16(r.fixed(2)) }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 { return be.Uint32(r.fixed(4)) }

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 { return be.Uint64(r.fixed(8)) }

// Len returns the unread byte count (0 once the reader is short).
func (r *Reader) Len() int { return len(r.rest) }

// Err returns ErrShort once any read ran short, nil before.
func (r *Reader) Err() error {
	if r.short {
		return ErrShort
	}
	return nil
}

// Writer is the encoding side: each Put appends big-endian to the
// caller-supplied slice it was made over and returns the writer, so a
// layout reads as one chain. A slice with room for the whole layout — a
// header array, a pooled buffer's view — is written in place and never
// reallocated.
type Writer struct{ b []byte }

// NewWriter returns a writer appending to b (pass b[:0] to overwrite a
// fixed-size header from its start).
func NewWriter(b []byte) *Writer { return &Writer{b: b} }

// Bytes returns b's initial contents and everything put since.
func (w *Writer) Bytes() []byte { return w.b }

// Put appends p's bytes.
func (w *Writer) Put(p []byte) *Writer {
	copy(w.extend(len(p)), p)
	return w
}

// PutU8 appends one byte.
func (w *Writer) PutU8(v uint8) *Writer {
	w.extend(1)[0] = v
	return w
}

// PutU16 appends a big-endian uint16.
func (w *Writer) PutU16(v uint16) *Writer {
	be.PutUint16(w.extend(2), v)
	return w
}

// PutU32 appends a big-endian uint32.
func (w *Writer) PutU32(v uint32) *Writer {
	be.PutUint32(w.extend(4), v)
	return w
}

// PutU64 appends a big-endian uint64.
func (w *Writer) PutU64(v uint64) *Writer {
	be.PutUint64(w.extend(8), v)
	return w
}

// extend lengthens the output by n bytes and returns them to fill. It
// grows into a fresh array, never by append, so the caller's slice is
// only ever resliced and a stack header array stays on the stack.
func (w *Writer) extend(n int) []byte {
	l := len(w.b)
	if cap(w.b)-l < n {
		nb := make([]byte, l, 2*cap(w.b)+n)
		copy(nb, w.b)
		w.b = nb
	}
	w.b = w.b[:l+n]
	return w.b[l:]
}
