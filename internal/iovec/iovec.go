// Package iovec is the buffer-management substrate of the zero-copy
// segment path: refcounted, pool-backed byte buffers (Buf) and segment
// vectors over them (Vec) with slice/retain/release semantics.
//
// The paper's performance argument (§3–4, Madeleine's incremental
// packing) is that payload bytes should be packed once and then travel
// the stack by reference. Before this package every rung of the data
// path re-copied: ipstack cloned each TCP segment, every VLink wrapper
// staged through its own buffer, the session layer materialized fresh
// buffers per receive. With iovec, a layer that does not transform
// bytes (striping, framing, the TCP segmenter) forwards retained views;
// a transforming layer (cipher, compression) copies exactly once into a
// pooled buffer.
//
// Ownership rules (see DESIGN.md "Buffer management"):
//
//   - Get returns a Buf with one reference, owned by the caller.
//   - Retain adds a reference; Release drops one. The buffer returns to
//     its pool when the count reaches zero; releasing a free buffer
//     panics.
//   - A Vec does not own its segments' buffers implicitly: Slice and
//     Clone retain on behalf of the returned vector, which must then be
//     Released exactly once.
//   - Unowned segments (Make, plain byte slices) are borrowed from the
//     caller: they must stay immutable until the operation that took
//     them completes. Retain/Release are no-ops for them.
//
// Buffers may be shared between Procs of one vtime.Kernel: the kernel's
// strictly sequential execution model makes plain (non-atomic)
// refcounts correct and deterministic. Do not share a Buf between
// kernels or with goroutines outside the simulation.
package iovec

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Size classes for the pools. Get rounds the request up to the next
// class; larger requests get a dedicated unpooled allocation.
var classSizes = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

var pools [len(classSizes)]sync.Pool

// Pool traffic accounting, package-wide (the pools are). Gets, frees
// and unpooled allocations are driven purely by simulation logic, so
// their deltas within one run are deterministic; misses depend on what
// the GC kept alive in the sync.Pools, so telemetry marks the miss
// series volatile. Atomics, because the pools are shared across
// kernels and tests bump them from multiple goroutines under -race.
var (
	poolGets      int64
	poolMisses    int64
	poolFrees     int64
	poolUnpooled  int64
	unpooledFrees int64
)

// PoolGets returns cumulative pooled-class Get calls.
func PoolGets() int64 { return atomic.LoadInt64(&poolGets) }

// PoolMisses returns Gets that allocated because the class pool was
// empty — a wall-clock-coupled (GC-dependent) value.
func PoolMisses() int64 { return atomic.LoadInt64(&poolMisses) }

// PoolFrees returns buffers returned to their pools.
func PoolFrees() int64 { return atomic.LoadInt64(&poolFrees) }

// PoolUnpooled returns Gets beyond the largest class (dedicated
// allocations).
func PoolUnpooled() int64 { return atomic.LoadInt64(&poolUnpooled) }

// Outstanding returns how many buffers handed out by Get — pooled
// classes and dedicated allocations alike — have not seen their last
// Release. A stack that leaks no reference reads the value it started
// from once its traffic has drained.
func Outstanding() int64 {
	return PoolGets() + PoolUnpooled() - PoolFrees() - atomic.LoadInt64(&unpooledFrees)
}

func classFor(n int) int {
	for c, s := range classSizes {
		if n <= s {
			return c
		}
	}
	return -1
}

// Buf is one refcounted storage block.
type Buf struct {
	p     []byte
	n     int // requested length (view size)
	refs  int
	class int // pool class, -1 when unpooled
}

// Get returns a buffer of length n with one reference. The bytes are
// NOT zeroed: callers must write before exposing any region.
func Get(n int) *Buf {
	c := classFor(n)
	if c < 0 {
		atomic.AddInt64(&poolUnpooled, 1)
		return &Buf{p: make([]byte, n), n: n, refs: 1, class: -1}
	}
	atomic.AddInt64(&poolGets, 1)
	if v := pools[c].Get(); v != nil {
		b := v.(*Buf)
		b.n = n
		b.refs = 1
		return b
	}
	atomic.AddInt64(&poolMisses, 1)
	return &Buf{p: make([]byte, classSizes[c]), n: n, refs: 1, class: c}
}

// Bytes returns the buffer's view: len is the requested size.
func (b *Buf) Bytes() []byte { return b.p[:b.n] }

// Refs returns the current reference count (for tests).
func (b *Buf) Refs() int { return b.refs }

// Retain adds a reference and returns b for chaining.
func (b *Buf) Retain() *Buf {
	if b.refs <= 0 {
		panic("iovec: retain of a free buffer")
	}
	b.refs++
	return b
}

// Release drops one reference; the last release returns the buffer to
// its pool. Releasing a free buffer panics — that discipline is what
// catches ownership bugs instead of letting them corrupt recycled
// bytes silently.
func (b *Buf) Release() {
	if b.refs <= 0 {
		panic(fmt.Sprintf("iovec: release of a free buffer (refs=%d)", b.refs))
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.class >= 0 {
		atomic.AddInt64(&poolFrees, 1)
		pools[b.class].Put(b)
	} else {
		atomic.AddInt64(&unpooledFrees, 1)
	}
}

// Seg is one segment of a vector: a byte view plus the buffer that owns
// the bytes (nil for borrowed caller memory).
type Seg struct {
	B     []byte
	Owner *Buf
}

// Release drops the segment's buffer reference, if it holds one.
func (s Seg) Release() {
	if s.Owner != nil {
		s.Owner.Release()
	}
}

// Vec is a segment vector. The zero value is an empty vector.
type Vec struct {
	Segs []Seg
}

// Make builds an unowned vector over caller memory (no retention; the
// caller keeps the bytes immutable for the borrow's duration).
func Make(bs ...[]byte) Vec {
	segs := make([]Seg, len(bs))
	for i, b := range bs {
		segs[i] = Seg{B: b}
	}
	return Vec{Segs: segs}
}

// Owned wraps a buffer's full view into a single-segment vector,
// transferring the caller's reference to the vector (no extra retain:
// releasing the vector releases the buffer).
func Owned(b *Buf) Vec {
	return Vec{Segs: []Seg{{B: b.Bytes(), Owner: b}}}
}

// Len returns the total byte count.
func (v Vec) Len() int {
	n := 0
	for _, s := range v.Segs {
		n += len(s.B)
	}
	return n
}

// Release drops one reference from every owned segment.
func (v Vec) Release() {
	for _, s := range v.Segs {
		s.Release()
	}
}

// Append adds one segment. owner may be nil (borrowed bytes). No
// reference is taken: the caller transfers or lends its own.
func (v *Vec) Append(owner *Buf, view []byte) {
	v.Segs = append(v.Segs, Seg{B: view, Owner: owner})
}

// SliceInto appends retained views of v's byte range [off, off+n) to
// dst. Owned source segments are retained once per contributing
// segment; dst must eventually be Released. dst may have pre-allocated
// segment storage (pooled callers pass a reused array).
func (v Vec) SliceInto(dst *Vec, off, n int) {
	if n < 0 || off < 0 {
		panic("iovec: negative slice bounds")
	}
	for _, s := range v.Segs {
		if n == 0 {
			return
		}
		if off >= len(s.B) {
			off -= len(s.B)
			continue
		}
		take := len(s.B) - off
		if take > n {
			take = n
		}
		if s.Owner != nil {
			s.Owner.Retain()
		}
		dst.Segs = append(dst.Segs, Seg{B: s.B[off : off+take], Owner: s.Owner})
		off = 0
		n -= take
	}
	if n > 0 {
		panic("iovec: slice beyond vector length")
	}
}

// Slice returns a retained sub-vector of the byte range [off, off+n).
func (v Vec) Slice(off, n int) Vec {
	out := Vec{Segs: make([]Seg, 0, len(v.Segs))}
	v.SliceInto(&out, off, n)
	return out
}

// Clone returns an independently-owned copy of the vector: owned
// segments are retained, unowned (borrowed) segments are copied into a
// pooled buffer so the clone survives the lender reusing its memory.
func (v Vec) Clone() Vec {
	out := Vec{Segs: make([]Seg, 0, len(v.Segs))}
	for _, s := range v.Segs {
		if s.Owner != nil {
			s.Owner.Retain()
			out.Segs = append(out.Segs, s)
			continue
		}
		b := Get(len(s.B))
		copy(b.Bytes(), s.B)
		out.Segs = append(out.Segs, Seg{B: b.Bytes(), Owner: b})
	}
	return out
}

// WriteTo writes the vector's bytes to w segment by segment — the
// file-backed analogue of the driver writev path: a store engine
// persisting [header | key | payload] hands the writer each view in
// place instead of flattening them into a staging buffer first.
// Implements io.WriterTo.
func (v Vec) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, s := range v.Segs {
		n, err := w.Write(s.B)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// AppendFrom appends the vector's bytes starting at offset off to dst
// and returns the extended slice.
func (v Vec) AppendFrom(dst []byte, off int) []byte {
	for _, s := range v.Segs {
		if off >= len(s.B) {
			off -= len(s.B)
			continue
		}
		dst = append(dst, s.B[off:]...)
		off = 0
	}
	return dst
}

// Flatten copies the whole vector into a fresh pooled buffer and
// returns it (one reference, caller releases). Handy for substrates
// that need contiguous bytes.
func (v Vec) Flatten() *Buf {
	b := Get(v.Len())
	v.CopyToFrom(b.Bytes(), 0)
	return b
}

// Fifo is a byte staging buffer with head-indexed consumption, for a
// stream with no frame size to wait for (ipstack's in-order TCP receive
// buffer): bytes are appended at the tail and consumed from the front,
// and the backing array is reused once drained. The re-slicing idiom
// (buf = buf[n:]) it replaces strands capacity on every consume and
// reallocates on nearly every append under steady traffic.
type Fifo struct {
	buf []byte
	off int
}

// Grow appends n uninitialized bytes and returns that region for the
// caller to fill. When the tail is full, the unconsumed bytes are first
// compacted to the front so capacity (and any reallocation) is sized by
// live data, not by the consumed prefix.
func (f *Fifo) Grow(n int) []byte {
	if f.off > 0 && len(f.buf)+n > cap(f.buf) {
		live := copy(f.buf, f.buf[f.off:])
		f.buf = f.buf[:live]
		f.off = 0
	}
	n0 := len(f.buf)
	if cap(f.buf)-n0 < n {
		nb := make([]byte, n0+n, (n0+n)*2)
		copy(nb, f.buf)
		f.buf = nb
		return nb[n0:]
	}
	f.buf = f.buf[:n0+n]
	return f.buf[n0:]
}

// Bytes returns the unconsumed region (valid until the next call).
func (f *Fifo) Bytes() []byte { return f.buf[f.off:] }

// Len returns the unconsumed byte count.
func (f *Fifo) Len() int { return len(f.buf) - f.off }

// Consume drops n bytes from the front; the backing array is recycled
// once everything was consumed.
func (f *Fifo) Consume(n int) {
	f.off += n
	if f.off > len(f.buf) {
		panic("iovec: Fifo consume beyond content")
	}
	if f.off == len(f.buf) {
		f.buf = f.buf[:0]
		f.off = 0
	}
}

// Queue is the delivery side of a stream reassembler whose bodies
// already sit in the pooled buffers they arrived into (see Fill):
// completed buffers queue in order and are read head-first as one byte
// stream, each released as its last byte is copied out. The zero value
// is an empty queue.
type Queue struct {
	segs []Seg
	head int // first unread segment
	n    int // unread bytes
}

// Push appends view, a region of owner's bytes, and takes over the
// caller's reference to owner (nil for plain memory). An empty view is
// released on the spot.
func (q *Queue) Push(owner *Buf, view []byte) {
	if len(view) == 0 {
		Seg{Owner: owner}.Release()
		return
	}
	if q.head > 0 && len(q.segs) == cap(q.segs) {
		q.segs = q.segs[:copy(q.segs, q.segs[q.head:])]
		q.head = 0
	}
	q.segs = append(q.segs, Seg{B: view, Owner: owner})
	q.n += len(view)
}

// Len returns the unread byte count.
func (q *Queue) Len() int { return q.n }

// Read copies the next unread bytes into dst — everything queued, up to
// len(dst) — and returns the count.
func (q *Queue) Read(dst []byte) int {
	total := 0
	for total < len(dst) && q.head < len(q.segs) {
		s := &q.segs[q.head]
		n := copy(dst[total:], s.B)
		total += n
		if s.B = s.B[n:]; len(s.B) == 0 {
			s.Release()
			*s = Seg{}
			q.head++
		}
	}
	q.n -= total
	if q.head == len(q.segs) {
		q.segs, q.head = q.segs[:0], 0
	}
	return total
}

// Release drops every unread buffer and empties the queue.
func (q *Queue) Release() {
	for _, s := range q.segs[q.head:] {
		s.Release()
	}
	*q = Queue{}
}

// Fill moves bytes from the front of *src to dst[*got:], advancing both,
// and reports whether dst is full. It is the step of a stream
// reassembler that knows the size of what it is waiting for (a fixed
// header, a body whose length the header gave): each arriving chunk is
// copied once, straight into its final place, instead of being staged
// in a growing buffer and copied out again.
func Fill(dst []byte, got *int, src *[]byte) bool {
	n := copy(dst[*got:], *src)
	*got += n
	*src = (*src)[n:]
	return *got == len(dst)
}

// CopyToFrom copies the vector's bytes starting at offset off into
// dst, returning the count copied (min of the remaining bytes and
// len(dst)).
func (v Vec) CopyToFrom(dst []byte, off int) int {
	total := 0
	for _, s := range v.Segs {
		if off >= len(s.B) {
			off -= len(s.B)
			continue
		}
		if total >= len(dst) {
			break
		}
		total += copy(dst[total:], s.B[off:])
		off = 0
	}
	return total
}
