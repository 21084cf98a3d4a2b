package ipstack

import (
	"padico/internal/iovec"
	"padico/internal/netsim"
)

// sendBlockSize is the pooled block unit of the TCP send queue. It is
// an iovec pool class, and large enough that a segment (one MSS) spans
// at most two blocks.
const sendBlockSize = 64 << 10

// sendQueue is the TCP socket send buffer as a queue of pooled,
// refcounted blocks: bytes [sndUna, sndEnd) live here exactly once.
// Writers copy into the tail block (the stack's single pack — the only
// payload copy on the send side); the segmenter emits retained views
// of block regions, so a transmission or retransmission allocates and
// copies nothing. Acked bytes are trimmed from the head; a block
// returns to the pool when both the queue and every in-flight packet
// view released it. Block space is never rewound or rewritten below
// the fill point, so a delayed duplicate still in the network always
// reads the bytes it was sent with.
type sendQueue struct {
	blocks []qblock
	n      int // bytes stored (un-acked + un-sent)
}

// qblock is one block: valid bytes are buf.Bytes()[lo:hi].
type qblock struct {
	buf    *iovec.Buf
	lo, hi int
}

// size returns the byte count currently queued.
func (q *sendQueue) size() int { return q.n }

// grow appends b's bytes to the tail (copying once into pooled
// blocks).
func (q *sendQueue) grow(b []byte) {
	for len(b) > 0 {
		if len(q.blocks) == 0 || q.blocks[len(q.blocks)-1].hi == sendBlockSize {
			q.blocks = append(q.blocks, qblock{buf: iovec.Get(sendBlockSize)})
		}
		t := &q.blocks[len(q.blocks)-1]
		c := copy(t.buf.Bytes()[t.hi:], b)
		t.hi += c
		q.n += c
		b = b[c:]
	}
}

// growVec appends n bytes of v starting at offset from (copying once).
func (q *sendQueue) growVec(v iovec.Vec, from, n int) {
	for _, s := range v.Segs {
		if n == 0 {
			return
		}
		if from >= len(s.B) {
			from -= len(s.B)
			continue
		}
		take := len(s.B) - from
		if take > n {
			take = n
		}
		q.grow(s.B[from : from+take])
		from = 0
		n -= take
	}
}

// drop trims n acked bytes from the head, releasing fully-consumed
// blocks (their bytes stay alive while in-flight views hold
// references). The tail block is never full before the FIN, so it goes
// back through reset once the FIN is acked.
func (q *sendQueue) drop(n int) {
	q.n -= n
	for n > 0 {
		b := &q.blocks[0]
		take := b.hi - b.lo
		if take > n {
			take = n
		}
		b.lo += take
		n -= take
		if b.lo == sendBlockSize { // fully filled and fully acked
			b.buf.Release()
			q.blocks = q.blocks[1:]
		}
	}
}

// view appends retained views of the byte range [off, off+n) — off
// relative to the queue head — to dst. The caller owns the references
// (one per contributing block) and releases them when the packet is
// consumed or dropped.
func (q *sendQueue) view(off, n int, dst *iovec.Vec) {
	for i := range q.blocks {
		if n == 0 {
			return
		}
		b := &q.blocks[i]
		blen := b.hi - b.lo
		if off >= blen {
			off -= blen
			continue
		}
		take := blen - off
		if take > n {
			take = n
		}
		b.buf.Retain()
		dst.Append(b.buf, b.buf.Bytes()[b.lo+off:b.lo+off+take])
		off = 0
		n -= take
	}
	if n > 0 {
		panic("ipstack: segment view beyond send queue")
	}
}

// reset releases every block (FIN acked, abort or teardown).
func (q *sendQueue) reset() {
	for i := range q.blocks {
		q.blocks[i].buf.Release()
	}
	q.blocks = nil
	q.n = 0
}

// ---------------------------------------------------------------------
// Pooled TCP packets.

// tcpPacket bundles everything one TCP transmission needs — the netsim
// packet, the IP/TCP headers and the payload view vector — in a single
// pooled object. One is taken per segment (data and ACKs alike),
// recycled after the receiver consumed it or the fabric dropped it, so
// steady-state TCP traffic allocates nothing per packet.
type tcpPacket struct {
	s    *Stack
	pkt  netsim.Packet
	hdr  ipHeader
	seg  tcpSeg
	pl   iovec.Vec
	segs [2]iovec.Seg // inline storage for pl (a segment spans <= 2 blocks)
	drop func()       // pre-bound release, wired as pkt.Drop
}

func (s *Stack) getTP() *tcpPacket {
	var tp *tcpPacket
	if n := len(s.tpFree); n > 0 {
		tp = s.tpFree[n-1]
		s.tpFree = s.tpFree[:n-1]
	} else {
		tp = &tcpPacket{s: s}
		tp.drop = tp.release
	}
	tp.pl.Segs = tp.segs[:0]
	return tp
}

// release drops the payload references and recycles the packet. Called
// exactly once per transmission: by the receiving host after the
// segment was processed, or by the fabric on a drop.
func (tp *tcpPacket) release() {
	tp.pl.Release()
	tp.pl.Segs = nil
	tp.hdr = ipHeader{}
	tp.seg = tcpSeg{}
	tp.pkt = netsim.Packet{}
	tp.s.tpFree = append(tp.s.tpFree, tp)
}
