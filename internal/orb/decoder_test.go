package orb

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"padico/internal/iovec"
)

// cdrBody marshals one of each CDR type the ORB knows.
func cdrBody() []byte {
	e := NewEncoder()
	e.PutU32(7)
	e.PutString("key")
	e.PutU64(1 << 40)
	e.PutF64(2.5)
	e.PutBytes([]byte{1, 2, 3})
	e.PutF64Seq([]float64{1, -2, math.Inf(1)})
	return e.Bytes()
}

// TestDecoderTruncatedBody decodes every strict prefix of a body: each
// must read as zero values from the field that runs out on, report
// ErrShort, and never index past the bytes it was given.
func TestDecoderTruncatedBody(t *testing.T) {
	body := cdrBody()
	for n := 0; n < len(body); n++ {
		d := NewDecoder(body[:n])
		u32, s, u64, f, b, seq := d.U32(), d.String(), d.U64(), d.F64(), d.Bytes(), d.F64Seq()
		if !errors.Is(d.Err(), iovec.ErrShort) {
			t.Fatalf("prefix %d of %d: Err = %v, want ErrShort", n, len(body), d.Err())
		}
		if len(seq) != 0 || (n < 4 && u32 != 0) || (n < 11 && s != "") || (n < 19 && u64 != 0) || (n < 27 && f != 0) || (n < 34 && b != nil) {
			t.Fatalf("prefix %d: a field past the cut decoded non-zero: %d %q %d %v %v %v", n, u32, s, u64, f, b, seq)
		}
	}
	d := NewDecoder(body)
	if d.U32() != 7 || d.String() != "key" || d.U64() != 1<<40 || d.F64() != 2.5 ||
		!bytes.Equal(d.Bytes(), []byte{1, 2, 3}) || len(d.F64Seq()) != 3 || d.Err() != nil || d.Len() != 0 {
		t.Fatal("the whole body does not decode")
	}
}

// FuzzOrbDecoder runs a servant's-eye sequence of reads (ops[i] picks
// the CDR type) over an arbitrary body. Decoding must not panic, must
// allocate no more than the body holds, and everything read before the
// body ran out must re-marshal to the body's prefix.
func FuzzOrbDecoder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, cdrBody())
	f.Add([]byte{5, 5}, cdrBody()[:30])
	e := NewEncoder()
	e.PutU32(0xFFFFFFFF) // a sequence length no body backs
	f.Add([]byte{5}, e.Bytes())
	f.Fuzz(func(t *testing.T, ops, body []byte) {
		d := NewDecoder(body)
		re := NewEncoder()
		for _, op := range ops {
			switch op % 6 {
			case 0:
				if v := d.U32(); d.Err() == nil {
					re.PutU32(v)
				}
			case 1:
				if v := d.String(); d.Err() == nil {
					re.PutString(v)
				}
			case 2:
				if v := d.U64(); d.Err() == nil {
					re.PutU64(v)
				}
			case 3:
				if v := d.F64(); d.Err() == nil {
					re.PutF64(v)
				}
			case 4:
				if v := d.Bytes(); d.Err() == nil {
					re.PutBytes(v)
				}
			case 5:
				v := d.F64Seq()
				if 8*len(v) > len(body) {
					t.Fatalf("F64Seq of %d doubles from a %d-byte body", len(v), len(body))
				}
				if d.Err() == nil {
					re.PutF64Seq(v)
				}
			}
		}
		if got := re.Bytes(); len(got) > len(body) || !bytes.Equal(got, body[:len(got)]) {
			t.Fatalf("re-marshalled % x is not a prefix of % x", got, body)
		}
		if d.Err() == nil && len(re.Bytes())+d.Len() != len(body) {
			t.Fatalf("read %d and %d left of %d bytes", len(re.Bytes()), d.Len(), len(body))
		}
	})
}
