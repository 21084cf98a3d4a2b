package iovec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// TestHeaderCodecAllocFree encodes and decodes the per-message headers
// of the SAN and WAN paths over stack arrays: MadIO's logical channel,
// the VLink MadIO driver, the Circuit express header, MPI's envelope,
// the ORB message header, the pstreams chunk, the gsec record and the
// AdOC frame. None of it may allocate.
func TestHeaderCodecAllocFree(t *testing.T) {
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		var madio [2]byte
		w := NewWriter(madio[:0])
		w.PutU16(7)
		var vl [10]byte
		w = NewWriter(vl[:0])
		w.PutU8(3)
		w.PutU32(11)
		w.PutU32(1 << 20)
		w.PutU8(1)
		var circ [5 + 4*2]byte
		w = NewWriter(circ[:0])
		w.PutU8(0)
		w.PutU32(2)
		w.PutU32(64)
		w.PutU32(1 << 20)
		var mpi, orb, pst [12]byte
		w = NewWriter(mpi[:0])
		w.PutU32(0xFFFFFFFF) // tag -1
		w.PutU32(64)
		w = NewWriter(orb[:0])
		w.PutU8(1)
		w.PutU32(42)
		w.PutU32(64)
		w = NewWriter(pst[:0])
		w.PutU64(1 << 40)
		w.PutU32(32 << 10)
		var gsec [4]byte
		w = NewWriter(gsec[:0])
		w.PutU32(1500)
		var adoc [9]byte
		w = NewWriter(adoc[:0])
		w.PutU8(6)
		w.PutU32(32 << 10)
		w.PutU32(9000)

		r := NewReader(madio[:])
		sink += uint64(r.U16())
		r = NewReader(vl[:])
		sink += uint64(r.U8()) + uint64(r.U32()) + uint64(r.U32()) + uint64(r.U8())
		r = NewReader(circ[:])
		sink += uint64(r.U8()) + uint64(r.U32()) + uint64(r.U32()) + uint64(r.U32())
		r = NewReader(mpi[:8])
		sink += uint64(int32(r.U32())) + uint64(r.U32())
		r = NewReader(orb[:9])
		sink += uint64(r.U8()) + uint64(r.U32()) + uint64(r.U32())
		r = NewReader(pst[:])
		sink += r.U64() + uint64(r.U32())
		r = NewReader(gsec[:])
		sink += uint64(r.U32())
		r = NewReader(adoc[:])
		sink += uint64(r.U8()) + uint64(r.U32()) + uint64(r.U32())
		if r.Err() != nil || r.Len() != 0 {
			t.Fatal("header decode ran short")
		}
	})
	if allocs != 0 {
		t.Fatalf("header encode+decode allocates %v times, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("nothing decoded")
	}
}

func TestReaderShortIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5})
	if r.U16() != 0x0102 || r.Err() != nil {
		t.Fatal("first field")
	}
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short U32 = %#x, err %v; want 0, ErrShort", v, r.Err())
	}
	// Three bytes were left, but the reader is short for good.
	if r.U8() != 0 || r.Next(0) != nil || r.Len() != 0 || r.Err() == nil {
		t.Fatal("a short reader read on")
	}
	r = NewReader([]byte{1})
	if r.Next(-1) != nil || r.Err() == nil {
		t.Fatal("negative Next succeeded")
	}
}

func TestWriterGrowsAndKeepsPrefix(t *testing.T) {
	var hdr [3]byte
	w := NewWriter(hdr[:1])
	w.PutU16(0xBEEF)
	if &w.Bytes()[0] != &hdr[0] {
		t.Fatal("a write that fits moved off the caller's array")
	}
	w.PutU64(1)
	w.Put([]byte("tail"))
	want := []byte{0, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 1, 't', 'a', 'i', 'l'}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("got % x, want % x", w.Bytes(), want)
	}
}

// FuzzReader drives a random sequence of cursor reads over random
// bytes: ops[i] picks the read (a fixed width, or Next of op>>3 bytes).
// A read must never panic or allocate, must mark the reader short
// exactly when the bytes asked for so far exceed the input, and what was
// read must write back, through a Writer, to the input's prefix.
func FuzzReader(f *testing.F) {
	w := NewWriter(nil)
	w.PutU8(1)
	w.PutU16(2)
	w.PutU32(3)
	w.PutU64(4)
	w.Put([]byte("abc"))
	f.Add([]byte{0, 1, 2, 3, 3<<3 | 4}, w.Bytes())
	f.Add([]byte{3, 3, 3}, w.Bytes())
	f.Add([]byte{4, 255, 0}, []byte{})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		out := NewWriter(make([]byte, 0, len(data)))
		// read returns the bytes asked for, whether the reader ran short
		// and what it left unread.
		read := func() (need int, short bool, left int) {
			*out = *NewWriter(out.Bytes()[:0])
			r := NewReader(data)
			for _, op := range ops {
				switch op % 5 {
				case 0:
					need++
					if v := r.U8(); r.Err() == nil {
						out.PutU8(v)
					}
				case 1:
					need += 2
					if v := r.U16(); r.Err() == nil {
						out.PutU16(v)
					}
				case 2:
					need += 4
					if v := r.U32(); r.Err() == nil {
						out.PutU32(v)
					}
				case 3:
					need += 8
					if v := r.U64(); r.Err() == nil {
						out.PutU64(v)
					}
				case 4:
					need += int(op >> 3)
					if p := r.Next(int(op >> 3)); r.Err() == nil {
						out.Put(p)
					}
				}
				if (r.Err() != nil) != (need > len(data)) {
					t.Fatalf("after %d bytes asked of %d: Err = %v", need, len(data), r.Err())
				}
			}
			return need, r.Err() != nil, r.Len()
		}
		if allocs := testing.AllocsPerRun(10, func() { read() }); allocs != 0 {
			t.Fatalf("reads allocated %v times", allocs)
		}
		need, short, left := read()
		got := out.Bytes()
		if len(got) > len(data) || !bytes.Equal(got, data[:len(got)]) {
			t.Fatalf("round trip: wrote % x of input % x", got, data)
		}
		if !short && (len(got) != need || left != len(data)-need) {
			t.Fatalf("wrote %d, Len %d after %d of %d bytes", len(got), left, need, len(data))
		}
		if len(data) >= 8 {
			if first, want := NewReader(data), binary.BigEndian.Uint64(data); first.U64() != want {
				t.Fatalf("U64 is not big-endian %#x", want)
			}
		}
	})
}
