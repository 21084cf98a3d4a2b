package iovec

import (
	"bytes"
	"errors"
	"testing"

	"padico/internal/vtime"
)

func TestGetReleaseRecycles(t *testing.T) {
	b := Get(1000)
	if len(b.Bytes()) != 1000 {
		t.Fatalf("len = %d, want 1000", len(b.Bytes()))
	}
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1", b.Refs())
	}
	b.Bytes()[0] = 0xAA
	b.Release()
	if b.Refs() != 0 {
		t.Fatalf("refs after release = %d, want 0", b.Refs())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterFreePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("retain of a free buffer did not panic")
		}
	}()
	b.Retain()
}

func TestVecDoubleReleasePanics(t *testing.T) {
	v := Owned(Get(128))
	v.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double vector release did not panic")
		}
	}()
	v.Release()
}

// TestRetainAcrossRelease is the aliasing rule: a retained sub-slice
// must keep its bytes intact after the original owner releases — the
// block must not return to the pool (where a later Get could scribble
// over it) while any view is live.
func TestRetainAcrossRelease(t *testing.T) {
	b := Get(4096)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	v := Owned(b)
	view := v.Slice(100, 200) // retains b
	v.Release()               // original owner gone; view keeps b alive
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1 (held by view)", b.Refs())
	}

	// Churn the pool: if b had been recycled, one of these would get its
	// block and overwrite the view's bytes.
	for i := 0; i < 16; i++ {
		nb := Get(4096)
		for j := range nb.Bytes() {
			nb.Bytes()[j] = 0xFF
		}
		nb.Release()
	}

	want := make([]byte, 200)
	for i := range want {
		want[i] = byte(100 + i)
	}
	got := make([]byte, 0, 200)
	got = view.AppendFrom(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("retained view's bytes changed after owner release + pool churn")
	}
	view.Release()
	if b.Refs() != 0 {
		t.Fatalf("refs = %d, want 0", b.Refs())
	}
}

func TestSliceCloneCopySemantics(t *testing.T) {
	owned := Get(10)
	copy(owned.Bytes(), []byte("0123456789"))
	borrowed := []byte("abcdefghij")
	v := Vec{}
	v.Append(owned, owned.Bytes())
	v.Append(nil, borrowed)
	if v.Len() != 20 {
		t.Fatalf("Len = %d, want 20", v.Len())
	}

	// Slice spanning both segments.
	s := v.Slice(8, 4)
	got := string(s.AppendFrom(nil, 0))
	if got != "89ab" {
		t.Fatalf("slice = %q, want %q", got, "89ab")
	}
	if owned.Refs() != 2 {
		t.Fatalf("owner refs = %d, want 2", owned.Refs())
	}
	s.Release()

	// Clone copies the borrowed segment: mutating the lender afterwards
	// must not affect the clone.
	c := v.Clone()
	borrowed[0] = 'X'
	got = string(c.AppendFrom(nil, 0))
	if got != "0123456789abcdefghij" {
		t.Fatalf("clone = %q, want original bytes", got)
	}
	c.Release()
	v.Release() // releases owned's original reference
	if owned.Refs() != 0 {
		t.Fatalf("owner refs = %d, want 0", owned.Refs())
	}
}

func TestFlattenAndCopyTo(t *testing.T) {
	v := Make([]byte("hello "), []byte("world"))
	b := v.Flatten()
	if string(b.Bytes()) != "hello world" {
		t.Fatalf("flatten = %q", b.Bytes())
	}
	dst := make([]byte, 5)
	if n := v.CopyToFrom(dst, 0); n != 5 || string(dst) != "hello" {
		t.Fatalf("CopyToFrom = %d %q", n, dst)
	}
	b.Release()
}

// TestMultiProcRetainRelease exercises retain/release from many Procs
// of one vtime kernel — the concurrency model iovec is specified
// against: scheduling interleavings are arbitrary, execution is
// serialized, so plain refcounts must end balanced.
func TestMultiProcRetainRelease(t *testing.T) {
	k := vtime.NewKernel()
	b := Get(1 << 10)
	copy(b.Bytes(), bytes.Repeat([]byte{0x5A}, 1<<10))
	v := Owned(b)
	const procs = 16
	err := k.Run(func(p *vtime.Proc) {
		done := vtime.NewWaitGroup("iovec")
		done.Add(procs)
		for i := 0; i < procs; i++ {
			i := i
			k.Go("holder", func(q *vtime.Proc) {
				defer done.Done()
				view := v.Slice(i*8, 64)
				q.Sleep(vtime.Duration(i+1) * 1000) // stagger releases
				for _, s := range view.Segs {
					if s.B[0] != 0x5A {
						t.Errorf("proc %d saw corrupted byte %x", i, s.B[0])
					}
				}
				view.Release()
			})
		}
		done.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Refs() != 1 {
		t.Fatalf("refs = %d, want 1 (the original)", b.Refs())
	}
	v.Release()
}

func TestUnpooledLargeBuffer(t *testing.T) {
	b := Get(8 << 20) // beyond the largest class
	if len(b.Bytes()) != 8<<20 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of unpooled buffer did not panic")
		}
	}()
	b.Release()
}

func TestFifoReusesBackingOnceDrained(t *testing.T) {
	var f Fifo
	f.Write([]byte("hello"))
	f.Write([]byte(" world"))
	if f.Len() != 11 || string(f.Bytes()) != "hello world" {
		t.Fatalf("fifo = %q (len %d)", f.Bytes(), f.Len())
	}
	f.Consume(6)
	if string(f.Bytes()) != "world" {
		t.Fatalf("after consume: %q", f.Bytes())
	}
	f.Consume(5)
	if f.Len() != 0 {
		t.Fatalf("len after drain = %d", f.Len())
	}
	// Once drained, the backing array is recycled: writing again must
	// not grow capacity beyond what the first round established.
	c0 := cap(f.buf)
	for i := 0; i < 100; i++ {
		f.Write([]byte("0123456789"))
		f.Consume(10)
	}
	if cap(f.buf) != c0 {
		t.Fatalf("backing array reallocated: cap %d -> %d", c0, cap(f.buf))
	}
	copy(f.Grow(3), "abc")
	if string(f.Bytes()) != "abc" {
		t.Fatalf("grow region = %q", f.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-consume did not panic")
		}
	}()
	f.Consume(4)
}

// failAfter errors once n bytes have been written — exercises WriteTo's
// short-write path.
type failAfter struct {
	buf bytes.Buffer
	n   int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.buf.Len()+len(p) > f.n {
		take := f.n - f.buf.Len()
		f.buf.Write(p[:take])
		return take, errFull
	}
	return f.buf.Write(p)
}

var errFull = errors.New("full")

func TestWriteToGathersSegments(t *testing.T) {
	hdr := []byte("HDR|")
	b := Get(6)
	copy(b.Bytes(), "owned!")
	v := Make(hdr)
	v.Append(b, b.Bytes())
	v.Append(nil, []byte("|tail"))

	var sink bytes.Buffer
	n, err := v.WriteTo(&sink)
	if err != nil || n != int64(v.Len()) {
		t.Fatalf("WriteTo = (%d, %v), want (%d, nil)", n, err, v.Len())
	}
	if sink.String() != "HDR|owned!|tail" {
		t.Fatalf("gathered bytes = %q", sink.String())
	}

	// A failing writer stops mid-vector and reports the partial count.
	fw := &failAfter{n: 7}
	n, err = v.WriteTo(fw)
	if err == nil || n != 7 {
		t.Fatalf("short WriteTo = (%d, %v), want (7, errFull)", n, err)
	}
	b.Release()
}

// Queue reads pushed views back as one stream whatever the read sizes,
// releases each buffer exactly as its last byte is copied out, releases
// an empty view at once, and hands back the rest on Release.
func TestQueueReadsHeadFirstAndReleases(t *testing.T) {
	base := Outstanding()
	var q Queue
	var want []byte
	for i := 0; i < 40; i++ {
		b := Get(10 + i)
		for j := range b.Bytes() {
			b.Bytes()[j] = byte(i)
		}
		view := b.Bytes()[:len(b.Bytes())-3] // a trailer stays out of the stream
		if i%7 == 0 {
			view = view[:0]
		}
		want = append(want, view...)
		q.Push(b, view)
		if len(view) == 0 && b.Refs() != 0 {
			t.Fatal("an empty view was queued instead of released")
		}
		if i%3 == 2 { // interleave reads so the head index advances under pushes
			got := make([]byte, 25)
			n := q.Read(got)
			if !bytes.Equal(got[:n], want[:n]) {
				t.Fatalf("push %d: read %d bytes out of order", i, n)
			}
			want = want[n:]
		}
	}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	got := make([]byte, len(want)-5)
	if n := q.Read(got); n != len(got) || !bytes.Equal(got, want[:n]) {
		t.Fatalf("bulk read: %d bytes, identical=%v", n, bytes.Equal(got, want[:n]))
	}
	if Outstanding() != base+1 {
		t.Fatalf("%d buffers out with 5 bytes of the last one unread, want 1", Outstanding()-base)
	}
	q.Release()
	if q.Len() != 0 || q.Read(got) != 0 || Outstanding() != base {
		t.Fatalf("after Release: Len=%d, %d buffers out", q.Len(), Outstanding()-base)
	}
}
