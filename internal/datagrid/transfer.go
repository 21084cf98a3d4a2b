package datagrid

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Transfer wire protocol, identical whatever substrate the session
// layer provisioned. Forward direction: a header message — a fixed
// segment [2B namelen][8B size][32B sha256] plus a name segment — then
// the payload in chunks through the channel's stream view. Reverse
// direction: 9-byte frames sent as {type, value} segment pairs — type 0
// grants cumulative credit (flow control), type 1 reports final status
// (value 0 = checksum verified, 1 = mismatch).
//
// On a Circuit these shapes travel as packed segment vectors with
// incremental (Madeleine) packing; on a VLink they are gather-written
// raw, and the receiver delimits by size — exactly the bytes the
// pre-session paradigm-specific engines moved, which is what keeps the
// bench's virtual-time results bit-identical across the refactor.
const (
	hdrFixedLen = 2 + 8 + 32
	frameLen    = 1 + 8

	frameCredit = 0
	frameStatus = 1

	statusOK  = 0
	statusBad = 1
)

func encodeHeader(name string, size int, sum [32]byte) []byte {
	return iovec.NewWriter(make([]byte, 0, hdrFixedLen)).PutU16(uint16(len(name))).PutU64(uint64(size)).Put(sum[:]).Bytes()
}

// sendFrame sends one reverse frame out of the receiver's scratch
// buffer (Channel.Send ends the borrow before it returns).
func sendFrame(q *vtime.Proc, ch session.Channel, scratch []byte, typ byte, val uint64) error {
	iovec.NewWriter(scratch[:0]).PutU8(typ).PutU64(val)
	return ch.Send(q, scratch[:1], scratch[1:frameLen])
}

// errRotten: the receiver rejected the bytes and the source replica,
// found rotten, was quarantined — the caller must re-source.
var errRotten = errors.New("datagrid: source replica rotten")

// errTransfer wraps per-attempt failures so the scheduler can retry;
// rejected marks a statusBad answer (possibly a rotten source).
type errTransfer struct {
	src, dst topology.NodeID
	attempt  int
	cause    string
	rejected bool
}

func (e *errTransfer) Error() string {
	return fmt.Sprintf("datagrid: transfer %d->%d attempt %d: %s", e.src, e.dst, e.attempt, e.cause)
}

// transferOnce moves data from src to dst over one session channel and
// returns the bytes as received (and verified) on the dst side. The
// session manager picks the substrate — local pipe, SAN circuit,
// (striped) VLink — so this engine is a pure chunk pump: header, chunks
// under a credit window, status. sum rides the header as given.
// attempt is 1-based and feeds the fault hook.
func (dg *DataGrid) transferOnce(p *vtime.Proc, src, dst topology.NodeID,
	name string, data []byte, sum [32]byte, attempt int) ([]byte, error) {
	var opts []session.Option
	if dg.cfg.Streams > 0 {
		opts = append(opts, session.WithStreams(dg.cfg.Streams))
	}
	if dg.cfg.Adaptive {
		opts = append(opts, session.WithAdaptive())
	}
	ch, err := dg.mgr.Open(p, src, dst, opts...)
	if err != nil {
		return nil, err
	}
	sp := dg.tel.Begin("datagrid", "transfer", int(src))
	if sp != nil {
		sp.Str("obj", name).I64("dst", int64(dst)).
			I64("bytes", int64(len(data))).I64("attempt", int64(attempt))
	}
	defer sp.End()
	// Chunks, credits and the TCP segments they generate attach under
	// the transfer, which itself hangs off the request root.
	defer sp.Exit(sp.Enter())
	dg.stats.countTransfer(ch.Info().Class)
	if ch.Info().Class >= selector.PathWAN {
		// Count what this attempt moved across the wide area, both
		// directions (payload down, credits/status back), success or
		// not — the read happens after both ends went quiet.
		defer func() {
			atomic.AddInt64(&dg.stats.WANBytes, ch.Info().BytesOut+ch.Remote().Info().BytesOut)
		}()
	}

	result := vtime.NewQueue[[]byte]("dg:result")
	status := vtime.NewQueue[byte]("dg:status")

	// Receiver side (dst) drives the remote end.
	dg.k.GoDaemon(fmt.Sprintf("dg-recv:%s", name), func(q *vtime.Proc) {
		dg.recvTransfer(q, ch.Remote(), attempt, result)
	})

	// Ack reader (src side): turns reverse frames into credit and the
	// final status. failed flips when the reverse channel dies early.
	// RecvVec keeps the 9-byte frames on pooled buffers — the reverse
	// channel delivers one frame per chunk, so this loop is per-chunk
	// hot path.
	acked := 0
	failed := false
	credit := vtime.NewCond("dg:credit")
	dg.k.GoDaemon(fmt.Sprintf("dg-ack:%s", name), func(q *vtime.Proc) {
		for {
			v, err := ch.RecvVec(q, 1, frameLen-1)
			if err != nil {
				failed = true
				credit.Broadcast()
				return
			}
			typ := v.Segs[0].B[0]
			val := iovec.NewReader(v.Segs[1].B).U64()
			v.Release()
			if typ == frameCredit {
				acked = int(val)
				credit.Broadcast()
			} else {
				status.Push(byte(val))
				return
			}
		}
	})

	// Sender (runs in the worker proc). The chunk pump below lends views
	// of the caller's data (WriteLent): data is a stored replica or a
	// Put buffer nobody mutates while the job retries, and the status
	// frame below is what ends the loan. On a vectored VLink stack the
	// bytes are packed exactly once (into the TCP send queue), on a
	// Circuit they ride incremental packing by reference and on the
	// local pipe the receiver reads them in place — no datagrid-level
	// copy in either paradigm; the receiver's buf is the only one.
	// When tracing, the header carries the transfer's trace context so
	// the destination adopts the request's identity from the wire — the
	// cross-node link is in the bytes, not just in spawn ancestry.
	hdrSegs := [][]byte{encodeHeader(name, len(data), sum), []byte(name)}
	if dg.tel.Tracing() {
		hdrSegs = append(hdrSegs, telemetry.EncodeCtx(dg.tel.Cur()))
	}
	if err := ch.Send(p, hdrSegs...); err != nil {
		ch.Close()
		return nil, &errTransfer{src: src, dst: dst, attempt: attempt, cause: "header: " + err.Error()}
	}
	for off := 0; off < len(data) && !failed; {
		end := off + chunkBytes
		if end > len(data) {
			end = len(data)
		}
		for off-acked > windowBytes-chunkBytes && !failed {
			credit.Wait(p)
		}
		if failed {
			break
		}
		csp := dg.tel.Begin("datagrid", "chunk", int(src)).Parent(sp).I64("off", int64(off))
		_, werr := ch.WriteLent(p, data[off:end])
		csp.End()
		if werr != nil {
			failed = true
			break
		}
		off = end
	}
	// A dead reverse channel can never deliver a status: drain briefly
	// instead of burning the full timeout on a known-failed attempt.
	tmo := dg.cfg.RetryTimeout
	if failed {
		tmo = 100 * time.Millisecond
	}
	st, ok := status.PopTimeout(p, tmo)
	ch.Close() // receiver unblocks on EOF if it is still draining
	if !ok {
		return nil, &errTransfer{src: src, dst: dst, attempt: attempt, cause: "status timeout"}
	}
	if st != statusOK {
		return nil, &errTransfer{src: src, dst: dst, attempt: attempt, cause: "checksum rejected by receiver", rejected: true}
	}
	out, ok := result.TryPop()
	if !ok {
		return nil, &errTransfer{src: src, dst: dst, attempt: attempt, cause: "receiver reported ok without data"}
	}
	return out, nil
}

// recvTransfer is the dst side of a transfer: reassemble, grant credit,
// verify the checksum, report status, drain to EOF.
func (dg *DataGrid) recvTransfer(q *vtime.Proc, ch session.Channel, attempt int, result *vtime.Queue[[]byte]) {
	defer ch.Close()
	hdr, err := ch.Recv(q, hdrFixedLen)
	if err != nil {
		return
	}
	r := iovec.NewReader(hdr[0])
	nameLen, size := int(r.U16()), int(r.U64())
	if size < 0 {
		return // a size no buffer can hold: the sender is broken
	}
	var want [32]byte
	copy(want[:], r.Next(len(want)))
	nameSeg, err := ch.Recv(q, nameLen)
	if err != nil {
		return
	}
	name := string(nameSeg[0])
	if dg.tel.Tracing() {
		ctxSeg, err := ch.Recv(q, telemetry.CtxWireLen)
		if err != nil {
			return
		}
		// Adopt the wire-carried request context: credit frames and the
		// status this side sends attribute to the originating request.
		dg.tel.SetCur(telemetry.DecodeCtx(ctxSeg[0]))
	}
	buf := make([]byte, size)
	scratch := make([]byte, 16) // reverse frames out, then the closing drain in
	received := 0
	for received < size {
		n, err := ch.Read(q, buf[received:])
		received += n
		if err != nil {
			return // sender gave up; no status to send
		}
		if err := sendFrame(q, ch, scratch, frameCredit, uint64(received)); err != nil {
			return
		}
	}
	q.Consume(model.MemcpyPerByte.Cost(size)) // store write
	ok := dg.hash(buf) == want                // the arrival check: this path's one pass
	if ok && dg.cfg.InjectFault != nil && dg.cfg.InjectFault(name, attempt) {
		ok = false
	}
	st := byte(statusBad)
	if ok {
		result.Push(buf)
		st = statusOK
	}
	if err := sendFrame(q, ch, scratch, frameStatus, uint64(st)); err != nil {
		return
	}
	// Hold the channel open until the sender has read the status and
	// closed; closing first could truncate the reverse stream.
	for {
		if _, err := ch.Read(q, scratch); err != nil {
			return
		}
	}
}
