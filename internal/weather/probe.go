package weather

// Active probing: one prober daemon per monitored entry, driving a
// session channel pinned (OpenWith) to the network under measurement.
// The probe protocol is three-segment messages [1B kind][8B seq][8B
// value]:
//
//	ping  -> echo replies with the same frame; RTT = round trip.
//	bw    -> value is the micro-transfer size; the prober streams that
//	         many bytes, the echo replies bwAck after consuming them;
//	         bandwidth = size / (round trip - measured RTT).
//
// A reply pump per channel turns replies into a queue the prober pops
// with a timeout: a link in outage cannot block monitoring — failures
// accumulate into a Down forecast, the poisoned channel is dropped,
// and the prober keeps re-dialing until the link answers again.

import (
	"fmt"
	"sync/atomic"

	"padico/internal/iovec"
	"padico/internal/selector"
	"padico/internal/vtime"
)

const (
	probePing  = 0x50
	probeBW    = 0x51
	probeBWAck = 0x52

	probeChunk = 16 << 10 // echo-side consumption granularity
)

// probeReply is one frame the reply pump delivered.
type probeReply struct {
	kind byte
	seq  uint64
	val  uint64
}

// probeFrame builds one three-segment frame: the sequence number pairs
// replies with requests, so a stale reply from a timed-out round can
// never be mistaken for the current one.
func probeFrame(kind byte, seq, val uint64) [][]byte {
	b := iovec.NewWriter(make([]byte, 0, 1+8+8)).PutU8(kind).PutU64(seq).PutU64(val).Bytes()
	return [][]byte{b[:1], b[1:9], b[9:]}
}

// probeDecision pins a probe channel to the entry's network: plain
// sysio, single stream, no wrappers — the probe measures the link, not
// a protocol stack.
func probeDecision(e *entry) selector.Decision {
	return selector.Decision{Network: e.nw, Method: "sysio", Streams: 1}
}

// openProbe provisions the entry's probe channel plus its echo daemon
// and reply pump.
func (s *Service) openProbe(p *vtime.Proc, e *entry) error {
	ch, err := s.mgr.OpenWith(p, e.a, e.b, probeDecision(e))
	if err != nil {
		return err
	}
	e.ch = ch
	// A fresh TCP connection is still in slow start: its first
	// micro-transfers measure the congestion window, not the link.
	// Discard them instead of publishing a phantom degradation.
	e.warmup = 2
	e.replies = vtime.NewQueue[probeReply](fmt.Sprintf("weather:replies:%s", e.key))
	replies := e.replies
	// Echo side (node b): answer pings, swallow micro-transfers.
	s.k.GoDaemon(fmt.Sprintf("weather:echo:%s", e.key), func(q *vtime.Proc) {
		rc := ch.Remote()
		buf := make([]byte, probeChunk)
		for {
			segs, err := rc.Recv(q, 1, 8, 8)
			if err != nil {
				return
			}
			switch segs[0][0] {
			case probePing:
				if rc.Send(q, segs[0], segs[1], segs[2]) != nil {
					return
				}
			case probeBW:
				left := int(iovec.NewReader(segs[2]).U64())
				for left > 0 {
					n := left
					if n > len(buf) {
						n = len(buf)
					}
					m, err := rc.Read(q, buf[:n])
					left -= m
					if err != nil {
						return
					}
				}
				if rc.Send(q, []byte{probeBWAck}, segs[1], segs[2]) != nil {
					return
				}
			}
		}
	})
	// Reply pump (node a): replies become poppable with a timeout.
	s.k.GoDaemon(fmt.Sprintf("weather:pump:%s", e.key), func(q *vtime.Proc) {
		for {
			segs, err := ch.Recv(q, 1, 8, 8)
			if err != nil {
				return
			}
			replies.Push(probeReply{kind: segs[0][0],
				seq: iovec.NewReader(segs[1]).U64(), val: iovec.NewReader(segs[2]).U64()})
		}
	})
	return nil
}

// closeProbe drops a poisoned probe channel; the next tick re-dials.
func (e *entry) closeProbe() {
	if e.ch != nil {
		e.ch.Close()
		e.ch.Remote().Close()
		e.ch = nil
		e.replies = nil
	}
}

// probeFailure records one failed probe round. The channel is only
// dropped once the streak smells like an outage: a single timeout is
// usually congestion (stale pongs are dropped by sequence number), and
// re-dialing resets the connection's congestion window — which costs a
// fresh warm-up before bandwidth samples are trustworthy again.
func (s *Service) probeFailure(e *entry) {
	atomic.AddInt64(&s.stats.ProbeFailures, 1)
	s.tel.Note("weather", "probe failure", int(e.a), int64(e.b), int64(e.failures+1))
	s.foldLoss(e, true)
	e.failures++
	if e.failures >= downAfter {
		e.closeProbe()
		s.setDown(e, true)
	}
}

// probeSuccess clears the failure streak (and a Down verdict).
func (s *Service) probeSuccess(e *entry) {
	e.failures = 0
	s.foldLoss(e, false)
	s.setDown(e, false)
}

// probeLoop is the per-entry prober daemon.
func (s *Service) probeLoop(p *vtime.Proc, e *entry) {
	tick := 0
	for {
		p.Sleep(probeInterval)
		if e.ch == nil {
			if err := s.openProbe(p, e); err != nil {
				s.probeFailure(e)
				continue
			}
		}
		tick++
		if tick%bandwidthEvery == 0 && e.haveLat {
			s.probeBandwidth(p, e)
		} else {
			s.probePing(p, e)
		}
	}
}

// replyTimeout scales the probe timeout with the measured latency: a
// congested link inflates RTTs by its queue depth, and declaring it
// down for being slow would be exactly the misdiagnosis hysteresis
// exists to prevent.
func (s *Service) replyTimeout(e *entry) vtime.Duration {
	return probeTimeout + 4*e.f.Latency
}

// probePing measures one RTT.
func (s *Service) probePing(p *vtime.Proc, e *entry) {
	e.seq++
	seq := e.seq
	atomic.AddInt64(&s.stats.Pings, 1)
	sp := s.tel.Begin("weather", "probe.ping", int(e.a)).
		I64("peer", int64(e.b)).I64("seq", int64(seq))
	defer sp.End()
	// Each probe is a request root: the echo's send and its TCP
	// segments attach here, not to whatever ran the daemon last.
	defer sp.Exit(sp.Enter())
	start := p.Now()
	segs := probeFrame(probePing, seq, 0)
	if e.ch.Send(p, segs...) != nil {
		s.probeFailure(e)
		return
	}
	for {
		r, ok := e.replies.PopTimeout(p, s.replyTimeout(e))
		if !ok {
			s.probeFailure(e)
			return
		}
		if r.kind != probePing || r.seq < seq {
			continue // stale reply from before a timeout round
		}
		rtt := p.Now().Sub(start)
		s.hProbe.Observe(rtt)
		s.foldLatency(e, rtt/2, activeAlpha)
		s.probeSuccess(e)
		return
	}
}

// probeBandwidth measures one micro-transfer: the serialization time is
// the round trip minus the (already forecast) round-trip latency, so a
// high-latency healthy WAN is not mistaken for a slow one.
func (s *Service) probeBandwidth(p *vtime.Proc, e *entry) {
	size := probeBytes
	atomic.AddInt64(&s.stats.BandwidthProbes, 1)
	e.seq++
	seq := e.seq
	sp := s.tel.Begin("weather", "probe.bw", int(e.a)).
		I64("peer", int64(e.b)).I64("bytes", int64(size))
	defer sp.End()
	defer sp.Exit(sp.Enter())
	start := p.Now()
	segs := probeFrame(probeBW, seq, uint64(size))
	if e.ch.Send(p, segs...) != nil {
		s.probeFailure(e)
		return
	}
	chunk := make([]byte, probeChunk)
	for sent := 0; sent < size; {
		n := size - sent
		if n > len(chunk) {
			n = len(chunk)
		}
		if _, err := e.ch.Write(p, chunk[:n]); err != nil {
			s.probeFailure(e)
			return
		}
		sent += n
	}
	for {
		r, ok := e.replies.PopTimeout(p, 4*s.replyTimeout(e))
		if !ok {
			s.probeFailure(e)
			return
		}
		if r.kind != probeBWAck || r.seq != seq {
			continue // stale ack from a timed-out round
		}
		if e.warmup > 0 {
			e.warmup--
			s.probeSuccess(e)
			return
		}
		// Correct by the *base* round trip (the propagation floor), not
		// the smoothed latency: congestion inflates the EWMA with
		// queueing delay, and subtracting queueing time from a transfer
		// that spent it queueing would overestimate the link.
		elapsed := p.Now().Sub(start)
		serialize := elapsed - 2*e.baseLat
		if serialize <= 0 {
			serialize = elapsed
		}
		s.foldBandwidth(e, float64(size)/serialize.Seconds(), activeAlpha)
		s.probeSuccess(e)
		return
	}
}
