package session

// Adaptive sessions: the WithAdaptive channel is a record-framed
// wrapper over whatever inner channel the selector provisions. Every
// logical operation (a Send or a Write) becomes one sequence-numbered
// record; both ends keep a replay buffer of records the peer has not
// received yet. When the pair's decision changes — the weather oracle
// reports the path degraded past the hysteresis threshold, or the link
// goes down outright — the wrapper closes the inner substrate, opens a
// fresh one on the new decision, runs a sequence-numbered resume
// handshake (each side tells the other which record it expects next),
// replays the gap, and continues. Applications see one uninterrupted
// channel; only Info().Decision and the Reselects/Resumes counters
// betray that the ground moved underneath.
//
// Record wire format (one inner Send per record):
//
//	segment 0: [1B kind][8B seq][2B nsegs]   fixed header
//	segment 1: [4B len] x nsegs              segment sizes
//	segment 2..: the record's payload segments
//
// Resume wire format (first message each way on a re-opened substrate):
//
//	segment 0: [8B epoch][8B sendNext][8B recvNext]
//
// Payload segments are cloned into the record at send time: resilience
// costs one copy — the replay buffer must survive the caller reusing
// its buffers, so the zero-copy borrow contract of the static path
// cannot hold here.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"padico/internal/iovec"
	"padico/internal/selector"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

const (
	recHdrLen    = 1 + 8 + 2
	resumeLen    = 8 + 8 + 8
	maxRecordLen = 256 << 10 // stream records are split at this size

	// adaptiveStall bounds one record send attempt: a send that makes
	// no progress for this long (virtual) is declared stalled and the
	// epoch is re-opened. Large enough that a merely degraded link
	// finishes a max-size record with margin.
	adaptiveStall = 5 * time.Second
	// adaptiveRetry is the pause between failed re-open attempts
	// (outage: the re-dial itself fails until the link is restored).
	adaptiveRetry = 500 * time.Millisecond

	// Live passive tap: a saturating adaptive sender measures its own
	// substrate-acceptance rate and feeds it to the weather service as
	// a bandwidth observation — a degrading link is detected within a
	// window of records instead of a probe cycle. Both thresholds must
	// be met before folding: the byte floor keeps tiny exchanges out,
	// the blocked-time floor keeps a sparse sender (whose records are
	// absorbed instantly by buffers, measuring nothing) from reporting
	// fantasy bandwidth.
	liveWindowBytes = 512 << 10
	liveWindowMin   = 200 * time.Millisecond

	// rxWindowBytes bounds the receive-side inbox: once this many
	// payload bytes sit undelivered, the pump stops draining the
	// substrate, so the sender feels backpressure through the inner
	// transport's own flow control just as it would on a static
	// channel.
	rxWindowBytes = 1 << 20
)

// record is one framed operation in flight between the ends.
type record struct {
	kind byte
	seq  uint64
	segs [][]byte
	// ctx is the sender's trace context at framing time. The live send
	// path inherits it ambiently (the tx helper proc is spawned by the
	// caller), but a replay runs in whichever proc re-opened the epoch —
	// the stored context keeps replayed records attributed to their
	// originating requests. When tracing, it also rides the wire so the
	// receive pump adopts the request identity across the node boundary.
	ctx vtime.TraceCtx
}

// dirState is one direction's sequencing: seq numbers assigned by the
// sender, the receiver's expectation, and the replay buffer in between.
type dirState struct {
	sendNext uint64
	recvNext uint64
	buf      []record // records with seq in [recvNext, sendNext)
	// eofAfter, once >= 0, is the sender's sendNext at close time: the
	// receiver reads EOF after delivering that many records.
	eofAfter int64
}

func newDirState() *dirState { return &dirState{eofAfter: -1} }

// prune drops replay entries the receiver has confirmed (recvNext
// advanced past them).
func (d *dirState) prune() {
	i := 0
	for i < len(d.buf) && d.buf[i].seq < d.recvNext {
		i++
	}
	if i > 0 {
		d.buf = append(d.buf[:0], d.buf[i:]...)
	}
}

// adaptiveState is shared by the two ends of one adaptive session.
type adaptiveState struct {
	mgr      *Manager
	src, dst topology.NodeID
	qos      selector.QoS

	dec   selector.Decision
	cls   selector.PathClass
	inner Channel // current epoch's substrate (src-side end)
	epoch int

	reopening bool
	epochCond *vtime.Cond // broadcast when a re-open completes
	done      bool        // both ends closed; inner released
	unsub     func()      // weather-subscription cancel (nil without weather)

	a2b, b2a *dirState
	ends     [2]*adaptiveEnd // owner end first

	// Live passive-tap window (see liveWindowBytes).
	winBytes   int64
	winElapsed vtime.Duration

	reselects, resumes int64
}

// observeLive accumulates one accepted record into the passive-tap
// window and reports the window when it is measurable. Compressed
// decisions are skipped: the wrapper sees application bytes, and the
// wire moves fewer — folding that ratio in as link bandwidth would
// poison the forecast. A record the substrate absorbed without
// blocking measured nothing — it *resets* the window rather than
// merely not reporting it, so a sparse sender's buffered bytes can
// never be divided by a later saturated stretch's blocked time.
func (st *adaptiveState) observeLive(n int, blocked vtime.Duration) {
	if st.mgr.weather == nil || st.dec.Network == nil || st.dec.Compress {
		return
	}
	if blocked < time.Millisecond {
		st.winBytes, st.winElapsed = 0, 0
		return
	}
	st.winBytes += int64(n)
	st.winElapsed += blocked
	if st.winBytes >= liveWindowBytes && st.winElapsed >= liveWindowMin {
		st.mgr.weather.ObserveTransfer(st.src, st.dst, st.dec.Network.Name,
			st.winBytes, st.winElapsed, true)
		st.winBytes, st.winElapsed = 0, 0
	}
}

// adaptiveEnd is one application-facing end. Delivered records queue
// in the shared receive end, kinded msg or stream.
type adaptiveEnd struct {
	msgRx
	st    *adaptiveState
	peer  *adaptiveEnd
	owner bool // the src-side end (its inner end is st.inner itself)

	tx *dirState // direction this end sends on
	rx *dirState // direction this end receives on

	txSem   *vtime.Semaphore // per-direction record FIFO
	rxSpace *vtime.Cond      // pump waits here while the inbox is full

	closed bool
}

// newAdaptiveEnd builds the end that sends on tx and receives on rx.
func newAdaptiveEnd(st *adaptiveState, owner bool, tx, rx *dirState, info Info) *adaptiveEnd {
	e := &adaptiveEnd{st: st, owner: owner, tx: tx, rx: rx,
		txSem:   vtime.NewSemaphore(fmt.Sprintf("adaptive:tx:%d->%d", info.Src, info.Dst), 1),
		rxSpace: vtime.NewCond(fmt.Sprintf("adaptive:rxspace:%d<-%d", info.Src, info.Dst))}
	e.msgRx = msgRx{info: info, src: e, rxCond: vtime.NewCond(fmt.Sprintf("adaptive:rx:%d<-%d", info.Src, info.Dst))}
	return e
}

// openAdaptive provisions the initial substrate and wraps it.
func (m *Manager) openAdaptive(p *vtime.Proc, src, dst topology.NodeID, qos selector.QoS, dec selector.Decision) (Channel, error) {
	inner, err := m.provision(p, src, dst, dec, false)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&m.stats.AdaptiveOpens, 1)
	st := &adaptiveState{
		mgr: m, src: src, dst: dst, qos: qos,
		dec: dec, cls: classOf(dec), inner: inner,
		epochCond: vtime.NewCond(fmt.Sprintf("adaptive:%d-%d", src, dst)),
		a2b:       newDirState(), b2a: newDirState(),
	}
	a := newAdaptiveEnd(st, true, st.a2b, st.b2a, Info{Src: src, Dst: dst, Class: st.cls, Decision: dec})
	b := newAdaptiveEnd(st, false, st.b2a, st.a2b, Info{Src: dst, Dst: src, Class: st.cls, Decision: dec})
	a.peer, b.peer = b, a
	st.ends = [2]*adaptiveEnd{a, b}
	st.spawnPumps(a, b)
	// Outage watch: when the weather declares the session's current
	// network down, close the inner substrate so blocked operations
	// error out and re-open instead of waiting on a dead link.
	if m.weather != nil {
		st.unsub = m.weather.Subscribe(func(x, y topology.NodeID, nw *topology.Network, f selector.Forecast) {
			if st.done || !f.Down || nw != st.dec.Network {
				return
			}
			// Forecasts are published for site-representative pairs:
			// match on the session pair's sites, not exact node ids.
			if (m.topo.SameSite(x, src) && m.topo.SameSite(y, dst)) ||
				(m.topo.SameSite(x, dst) && m.topo.SameSite(y, src)) {
				st.inner.Close()
				st.inner.Remote().Close()
			}
		})
	}
	return a, nil
}

// innerEnd returns this end's side of the current substrate.
func (e *adaptiveEnd) innerEnd() Channel {
	if e.owner {
		return e.st.inner
	}
	return e.st.inner.Remote()
}

// spawnPumps starts one receive pump per end for the current epoch.
func (st *adaptiveState) spawnPumps(a, b *adaptiveEnd) {
	ep := st.epoch
	st.mgr.k.GoDaemon(fmt.Sprintf("adaptive:rx:%d->%d.%d", st.src, st.dst, ep),
		func(q *vtime.Proc) { st.pump(q, ep, b) })
	st.mgr.k.GoDaemon(fmt.Sprintf("adaptive:rx:%d->%d.%d", st.dst, st.src, ep),
		func(q *vtime.Proc) { st.pump(q, ep, a) })
}

// pump reads records from end's side of epoch ep's substrate and
// delivers them in sequence. A pump outlived by its epoch discards
// whatever it still reads — the resume protocol replays anything the
// handshake did not account for.
func (st *adaptiveState) pump(q *vtime.Proc, ep int, end *adaptiveEnd) {
	for {
		if st.done || st.epoch != ep {
			return
		}
		inner := end.innerEnd()
		rec, err := readRecord(q, inner, st.mgr.tel.Tracing())
		if err != nil {
			return
		}
		if !rec.ctx.Zero() {
			// Adopt the wire-carried request context: delivery and the
			// substrate reads for the next record attribute to the request
			// whose bytes they move.
			st.mgr.k.SetTraceCtx(rec.ctx)
		}
		if st.done || st.epoch != ep {
			return // stale epoch: the resume handshake governs now
		}
		if rec.seq < end.rx.recvNext {
			continue // duplicate of a record the old epoch delivered
		}
		if rec.seq > end.rx.recvNext {
			// A hole means the epoch is poisoned: stop delivering; the
			// sender's stall watchdog will re-open and replay the gap.
			return
		}
		// Receiver backpressure: stop draining the substrate while the
		// application is behind — the inner transport's flow control
		// then pushes back on the sender. recvNext is only advanced
		// when the record is actually delivered, so a record dropped
		// here by an epoch change is replayed by the resume.
		for end.queued >= rxWindowBytes && !st.done && st.epoch == ep {
			end.rxSpace.Wait(q)
		}
		if st.done || st.epoch != ep {
			return
		}
		end.rx.recvNext++
		end.rx.prune()
		end.push(rxMsg{kind: rec.kind, segs: rec.segs})
	}
}

// ---------------------------------------------------------------------
// Record wire helpers.

// traced appends one fixed trace-context segment to every record (and
// expects one back): both ends share the manager's hub, so the flag is
// consistent by construction and the untraced wire stays byte-identical.
func writeRecord(q *vtime.Proc, ch Channel, rec record, traced bool) error {
	hdr := iovec.NewWriter(make([]byte, 0, recHdrLen)).PutU8(rec.kind).PutU64(rec.seq).PutU16(uint16(len(rec.segs)))
	sizes := iovec.NewWriter(make([]byte, 0, 4*len(rec.segs)))
	segs := make([][]byte, 2, 3+len(rec.segs))
	for _, s := range rec.segs {
		sizes.PutU32(uint32(len(s)))
		segs = append(segs, s)
	}
	segs[0], segs[1] = hdr.Bytes(), sizes.Bytes()
	if traced {
		segs = append(segs, telemetry.EncodeCtx(rec.ctx))
	}
	return ch.Send(q, segs...)
}

func readRecord(q *vtime.Proc, ch Channel, traced bool) (record, error) {
	hdrSeg, err := ch.Recv(q, recHdrLen)
	if err != nil {
		return record{}, err
	}
	r := iovec.NewReader(hdrSeg[0])
	rec := record{kind: r.U8(), seq: r.U64()}
	n := int(r.U16())
	sizesSeg, err := ch.Recv(q, 4*n)
	if err != nil {
		return record{}, err
	}
	r = iovec.NewReader(sizesSeg[0])
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = int(r.U32())
	}
	rec.segs, err = ch.Recv(q, sizes...)
	if err != nil {
		return record{}, err
	}
	if traced {
		ctxSeg, err := ch.Recv(q, telemetry.CtxWireLen)
		if err != nil {
			return record{}, err
		}
		rec.ctx = telemetry.DecodeCtx(ctxSeg[0])
	}
	return rec, nil
}

// sendAttempt runs one guarded record write: the write happens in a
// helper proc so a link that dies (or stalls) under it cannot wedge the
// caller — after adaptiveStall the attempt is abandoned and the epoch
// re-opened. An abandoned write that later completes is harmless: its
// record is replayed and the pump drops the duplicate.
func (st *adaptiveState) sendAttempt(p *vtime.Proc, ch Channel, rec record) bool {
	done := vtime.NewQueue[error]("adaptive:send")
	st.mgr.k.GoDaemon("adaptive:tx", func(q *vtime.Proc) {
		done.Push(writeRecord(q, ch, rec, st.mgr.tel.Tracing()))
	})
	err, ok := done.PopTimeout(p, adaptiveStall)
	return ok && err == nil
}

// ---------------------------------------------------------------------
// Re-selection and resume.

// maybeReselect re-evaluates the pair's decision at an operation
// boundary and re-opens when it changed. It also parks the caller
// while another proc's re-open is in flight.
func (e *adaptiveEnd) maybeReselect(p *vtime.Proc) {
	st := e.st
	for st.reopening {
		st.epochCond.Wait(p)
	}
	if st.done || st.mgr.weather == nil {
		return
	}
	if st.cls == selector.PathLocal || st.cls == selector.PathSAN {
		return // nothing to re-select inside the machine room
	}
	dec, err := st.mgr.decide(st.src, st.dst, st.qos, &st.dec)
	if err != nil || dec == st.dec {
		return
	}
	st.reopen(p, dec)
}

// ensureReopen is called after a failed send attempt on epoch seen: if
// nobody advanced the epoch yet, this proc re-opens (re-evaluating the
// decision first); otherwise it waits out the re-open in flight. Either
// way the failed record is covered by the resume replay.
func (e *adaptiveEnd) ensureReopen(p *vtime.Proc, seen int) {
	st := e.st
	for st.reopening {
		st.epochCond.Wait(p)
	}
	if st.done || st.epoch != seen {
		return
	}
	dec := st.dec
	if next, err := st.mgr.decide(st.src, st.dst, st.qos, &st.dec); err == nil {
		dec = next
	}
	st.reopen(p, dec)
}

// reopen tears down the current substrate, provisions dec, runs the
// resume handshake and replays both directions' gaps. It retries (with
// a fresh decision) until it succeeds or the session is closed. A
// successful re-open whose decision differs from the incumbent counts
// as a re-selection; every one counts as a resume.
func (st *adaptiveState) reopen(p *vtime.Proc, dec selector.Decision) {
	st.reopening = true
	sp := st.mgr.tel.Begin("session", "reselect", int(st.src))
	if sp != nil {
		sp.I64("dst", int64(st.dst)).Str("from", st.dec.String()).Str("to", dec.String())
	}
	defer func() {
		st.reopening = false
		st.epochCond.Broadcast()
		sp.End()
	}()
	st.mgr.tel.Note("session", "reselect: reopening epoch", int(st.src), int64(st.dst), int64(st.epoch))
	st.inner.Close()
	st.inner.Remote().Close()
	for !st.done {
		inner, err := st.mgr.OpenWith(p, st.src, st.dst, dec)
		if err == nil {
			// The session may have been closed while the open blocked:
			// release the fresh substrate instead of adopting it.
			if st.done {
				inner.Close()
				inner.Remote().Close()
				return
			}
			if res, ok := st.handshake(p, inner); ok && !st.done {
				st.inner = inner
				st.epoch++
				// Stale pumps parked on a full inbox re-check the epoch.
				st.ends[0].rxSpace.Broadcast()
				st.ends[1].rxSpace.Broadcast()
				// New pumps first, then the replay: the pumps drain what
				// the replay writes, so a large gap cannot wedge on
				// substrate backpressure.
				st.spawnPumps(st.ends[0], st.ends[1])
				if st.replay(p, res) {
					// Only a re-open that replayed and continued counts.
					if dec != st.dec {
						st.reselects++
						atomic.AddInt64(&st.mgr.stats.Reselects, 1)
					}
					st.dec = dec
					st.cls = classOf(dec)
					st.winBytes, st.winElapsed = 0, 0 // new decision, fresh window
					st.resumes++
					atomic.AddInt64(&st.mgr.stats.Resumes, 1)
					if st.mgr.tel.Tracing() {
						st.mgr.tel.Instant("session", "resume", int(st.src)).
							I64("epoch", int64(st.epoch)).Str("on", dec.String()).End()
					}
					st.mgr.tel.Note("session", "resume: replay complete", int(st.src), int64(st.dst), int64(st.epoch))
					return
				}
				// Replay died (the new link failed too): close and retry.
				st.inner.Close()
				st.inner.Remote().Close()
			} else {
				inner.Close()
				inner.Remote().Close()
				if st.done {
					return
				}
			}
		}
		p.Sleep(adaptiveRetry)
		// The world may have changed while we slept.
		if next, derr := st.mgr.decide(st.src, st.dst, st.qos, &st.dec); derr == nil {
			dec = next
		}
	}
}

// resumePoint carries the wire-agreed replay start of each direction:
// the seq number the respective receiver said it expects next.
type resumePoint struct {
	a2bStart, b2aStart uint64
	err                error
}

// handshake runs the sequence-numbered resume exchange on a candidate
// substrate, both sides driven by the re-opening proc (the rendezvous
// the PadicoTM bootstrap would arbitrate). Each side announces its
// epoch, what it has sent and what it expects next; the replay starts
// from the wire-carried expectations. The exchange is guarded by the
// stall timeout like any send.
func (st *adaptiveState) handshake(p *vtime.Proc, inner Channel) (resumePoint, bool) {
	done := vtime.NewQueue[resumePoint]("adaptive:resume")
	epoch := uint64(st.epoch + 1)
	st.mgr.k.GoDaemon("adaptive:resume", func(q *vtime.Proc) {
		done.Push(func() resumePoint {
			a, b := inner, inner.Remote()
			// A -> B: my epoch, what I have sent, what I expect next.
			if err := a.Send(q, resumeFrame(epoch, st.a2b.sendNext, st.b2a.recvNext)); err != nil {
				return resumePoint{err: err}
			}
			gotE, _, b2aStart, err := readResume(q, b)
			if err != nil {
				return resumePoint{err: err}
			}
			if gotE != epoch {
				return resumePoint{err: fmt.Errorf("session: resume epoch %d, want %d", gotE, epoch)}
			}
			// B -> A: the mirror image.
			if err := b.Send(q, resumeFrame(epoch, st.b2a.sendNext, st.a2b.recvNext)); err != nil {
				return resumePoint{err: err}
			}
			gotE, _, a2bStart, err := readResume(q, a)
			if err != nil {
				return resumePoint{err: err}
			}
			if gotE != epoch {
				return resumePoint{err: fmt.Errorf("session: resume epoch %d, want %d", gotE, epoch)}
			}
			return resumePoint{a2bStart: a2bStart, b2aStart: b2aStart}
		}())
	})
	res, ok := done.PopTimeout(p, adaptiveStall)
	return res, ok && res.err == nil
}

func resumeFrame(epoch, sendNext, recvNext uint64) []byte {
	return iovec.NewWriter(make([]byte, 0, resumeLen)).PutU64(epoch).PutU64(sendNext).PutU64(recvNext).Bytes()
}

func readResume(q *vtime.Proc, ch Channel) (epoch, sendNext, recvNext uint64, err error) {
	segs, err := ch.Recv(q, resumeLen)
	if err != nil {
		return 0, 0, 0, err
	}
	r := iovec.NewReader(segs[0])
	return r.U64(), r.U64(), r.U64(), nil
}

// replay resends both directions' gaps on the fresh substrate, oldest
// first, starting from the wire-agreed resume points. It reports
// success.
func (st *adaptiveState) replay(p *vtime.Proc, res resumePoint) bool {
	for _, pair := range []struct {
		d     *dirState
		start uint64
		ch    Channel
	}{{st.a2b, res.a2bStart, st.inner}, {st.b2a, res.b2aStart, st.inner.Remote()}} {
		pair.d.prune()
		for _, rec := range append([]record(nil), pair.d.buf...) {
			if rec.seq < pair.start || rec.seq < pair.d.recvNext {
				continue // the receiver already has it
			}
			// Replay under the record's own context, not the re-opening
			// proc's: the resent bytes belong to the original request.
			prev := st.mgr.k.SetTraceCtx(rec.ctx)
			ok := st.sendAttempt(p, pair.ch, rec)
			st.mgr.k.SetTraceCtx(prev)
			if !ok {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// The Channel implementation.

// sendRecord frames one operation and delivers it (or arranges for the
// resume replay to). It returns once the record is accepted by the
// current substrate or covered by a re-open's replay buffer.
func (e *adaptiveEnd) sendRecord(p *vtime.Proc, kind byte, segs [][]byte) error {
	st := e.st
	if e.closed || st.done {
		return ErrClosed
	}
	if e.peer.closed {
		return ErrClosed
	}
	e.txSem.Acquire(p)
	defer e.txSem.Release()
	e.maybeReselect(p)
	if e.closed || st.done {
		return ErrClosed
	}
	rec := record{kind: kind, seq: e.tx.sendNext, segs: copySegs(segs, false),
		ctx: st.mgr.k.TraceCtx()}
	recBytes := 0
	for _, s := range rec.segs {
		recBytes += len(s)
	}
	e.tx.sendNext++
	e.tx.buf = append(e.tx.buf, rec)
	for {
		ep := st.epoch
		t0 := p.Now()
		if st.sendAttempt(p, e.innerEnd(), rec) {
			st.observeLive(recBytes, p.Now().Sub(t0))
			return nil
		}
		// The stall watchdog fired: record it and dump the flight ring —
		// the control-plane history leading here is the post-mortem.
		st.mgr.tel.Note("session", "watchdog: send stalled", int(e.info.Src), int64(e.info.Dst), int64(ep))
		st.mgr.tel.DumpFlight("session watchdog: send stalled")
		e.ensureReopen(p, ep)
		if st.done {
			return ErrClosed
		}
		if st.epoch != ep {
			// A re-open happened (ours or another proc's): its replay
			// covered this record.
			return nil
		}
	}
}

// awaitMsg implements rxSource: a record is deliverable, the peer
// closed (EOF once drained) or this end closed. When records are known
// to be outstanding (the sender's replay buffer is non-empty, or the
// peer closed with undelivered records) a silent stall triggers
// recovery — the receiver must not wait forever on an epoch that died
// under the last records in flight.
func (e *adaptiveEnd) awaitMsg(p *vtime.Proc) (rxMsg, error) {
	for {
		if e.closed || e.st.done {
			return rxMsg{}, ErrClosed
		}
		if e.pending() > 0 {
			m := e.pop()
			e.rxSpace.Signal()
			return m, nil
		}
		if e.rx.eofAfter >= 0 && e.rx.recvNext >= uint64(e.rx.eofAfter) {
			return rxMsg{}, io.EOF
		}
		if len(e.rx.buf) > 0 || e.rx.eofAfter >= 0 {
			if !e.rxCond.WaitTimeout(p, adaptiveStall) {
				e.ensureReopen(p, e.st.epoch)
			}
		} else {
			e.rxCond.Wait(p)
		}
	}
}

// Send implements Channel.
func (e *adaptiveEnd) Send(p *vtime.Proc, segs ...[]byte) error {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	if err := e.sendRecord(p, recKindMsg, segs); err != nil {
		return err
	}
	e.info.Sends++
	e.info.BytesOut += int64(n)
	return nil
}

// Write implements Channel: stream bytes travel as one or more
// bounded records (splitting keeps any single send attempt finite on a
// degraded link; stream framing carries no boundaries anyway).
func (e *adaptiveEnd) Write(p *vtime.Proc, data []byte) (int, error) {
	if len(data) == 0 {
		if err := e.sendRecord(p, recKindStream, [][]byte{{}}); err != nil {
			return 0, err
		}
		e.info.Sends++
		return 0, nil
	}
	total := 0
	for off := 0; off < len(data); {
		end := off + maxRecordLen
		if end > len(data) {
			end = len(data)
		}
		if err := e.sendRecord(p, recKindStream, [][]byte{data[off:end]}); err != nil {
			return total, err
		}
		e.info.Sends++
		e.info.BytesOut += int64(end - off)
		total += end - off
		off = end
	}
	return total, nil
}

// WriteLent implements Channel: the replay log keeps its own clone of
// every record, so there is nothing to lend.
func (e *adaptiveEnd) WriteLent(p *vtime.Proc, data []byte) (int, error) {
	return e.Write(p, data)
}

// Remote implements Channel.
func (e *adaptiveEnd) Remote() Channel { return e.peer }

// Info implements Channel: the *current* decision plus this end's
// counters and the session's adaptation history.
func (e *adaptiveEnd) Info() Info {
	info := e.info
	info.Class = e.st.cls
	info.Decision = e.st.dec
	info.Reselects = e.st.reselects
	info.Resumes = e.st.resumes
	return info
}

// Close implements Channel: the peer drains what was already sent and
// then reads EOF; the substrate is released when both ends closed.
func (e *adaptiveEnd) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.tx.eofAfter = int64(e.tx.sendNext)
	e.rxCond.Broadcast()
	e.peer.rxCond.Broadcast()
	if e.peer.closed {
		e.st.done = true
		e.st.inner.Close()
		e.st.inner.Remote().Close()
		e.st.epochCond.Broadcast()
		e.rxSpace.Broadcast()
		e.peer.rxSpace.Broadcast()
		if e.st.unsub != nil {
			e.st.unsub()
			e.st.unsub = nil
		}
	}
	return nil
}
