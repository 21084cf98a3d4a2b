package circuit

import (
	"time"

	"padico/internal/iovec"
	"padico/internal/madapi"
	"padico/internal/netaccess"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// ---------------------------------------------------------------------
// MadIO adapter: the straight parallel path. One MadIOPort per
// (circuit, fabric, node) owns a logical channel; per-link adapters are
// thin views on it.

// MadIOPort binds a circuit to a logical channel of a MadIO instance.
type MadIOPort struct {
	mio      *netaccess.MadIO
	logical  uint16
	circ     *Circuit
	madRank  func(circuitRank int) int // circuit rank -> madeleine rank
	circRank func(madRank int) int
	closed   bool
	// Scratch for every message: SendVec and Deliver copy what they keep.
	meta []byte
	vec  []iovec.Seg
	segs [][]byte
}

// Close releases the port's MadIO logical channel — logical ids are a
// finite per-node resource, so cached circuits return theirs when the
// last session over them closes. Idempotent (a 2-rank circuit closes
// each per-link view of the port).
func (p *MadIOPort) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.mio.Unregister(p.logical)
}

// NewMadIOPort registers the circuit on the MadIO logical channel and
// returns a port from which per-link adapters are derived. The two rank
// translators map between circuit ranks and Madeleine ranks on this
// fabric.
func NewMadIOPort(mio *netaccess.MadIO, logical uint16, circ *Circuit,
	madRank func(int) int, circRank func(int) int) *MadIOPort {
	p := &MadIOPort{mio: mio, logical: logical, circ: circ, madRank: madRank, circRank: circRank}
	mio.Register(logical, func(_ *vtime.Proc, src int, in madapi.InMessage) {
		// Express header first (reserved byte + count), then all lengths
		// in one express segment, then the payload segments — express
		// never follows cheaper, per the Madeleine protocol.
		nsegs := int(iovec.NewReader(in.Unpack(5, madapi.ReceiveExpress)[1:]).U32())
		lens := iovec.NewReader(in.Unpack(4*nsegs, madapi.ReceiveExpress))
		segs := p.segs[:0]
		for i := 0; i < nsegs; i++ {
			segs = append(segs, in.Unpack(int(lens.U32()), madapi.ReceiveCheaper))
		}
		in.EndUnpacking()
		circ.Deliver(circRank(src), segs)
		clear(segs)
		p.segs = segs
	})
	return p
}

// Link returns the adapter for reaching circuit rank dst through this
// port.
func (p *MadIOPort) Link(dst int) LinkAdapter { return &madioLink{p: p, dst: dst} }

type madioLink struct {
	p   *MadIOPort
	dst int
}

// Name implements LinkAdapter.
func (l *madioLink) Name() string { return "madio" }

// Close releases the underlying port's logical channel.
func (l *madioLink) Close() { l.p.Close() }

// Send implements LinkAdapter: header combining packs a reserved zero
// byte, the segment count and all segment lengths as express segments of
// the same hardware message.
func (l *madioLink) Send(segs [][]byte) {
	p := l.p
	if n := 5 + 4*len(segs); cap(p.meta) < n {
		p.meta = make([]byte, n)
	}
	w := iovec.NewWriter(p.meta[:0]).PutU8(0).PutU32(uint32(len(segs)))
	vec := p.vec[:0]
	for _, s := range segs {
		w.PutU32(uint32(len(s)))
		vec = append(vec, iovec.Seg{B: s})
	}
	meta := w.Bytes()
	p.mio.SendVec(p.madRank(l.dst), p.logical, [][]byte{meta[:5], meta[5:]}, iovec.Vec{Segs: vec})
	clear(vec)
	p.vec = vec
}

// ---------------------------------------------------------------------
// VLink adapter: frames messages over a full VLink, so the alternate
// adapters — parallel streams, AdOC, VRP, security — are usable under
// Circuit, per §4.2 "Circuit adapters have been implemented on top of
// ... VLink (to use the alternates VLink adapters)".

// frame layout: [1B reserved, 0][4B nsegs] then per segment [4B len][bytes].

func frameMessage(segs [][]byte) []byte {
	total := 5
	for _, s := range segs {
		total += 4 + len(s)
	}
	w := iovec.NewWriter(make([]byte, 0, total)).PutU8(0).PutU32(uint32(len(segs)))
	for _, s := range segs {
		w.PutU32(uint32(len(s))).Put(s)
	}
	return w.Bytes()
}

// frameParser incrementally decodes frames from stream chunks. Every
// field's size is known by the time its bytes arrive (the frame header,
// each length word, each segment), so a chunk is copied once, straight
// into the field it belongs to.
type frameParser struct {
	hdr   [5]byte // the frame header, then each segment's length word
	got   int     // bytes filled so far of the field being read
	nsegs int
	segs  [][]byte // nil until the frame header is complete
	seg   []byte   // the segment being filled, nil while reading its length
}

// feed consumes stream data and emits every frame it completes.
func (fp *frameParser) feed(data []byte, emit func(segs [][]byte)) {
	for {
		if fp.segs == nil {
			if !iovec.Fill(fp.hdr[:], &fp.got, &data) {
				return
			}
			fp.nsegs = int(iovec.NewReader(fp.hdr[1:]).U32()) // past the reserved byte
			fp.segs, fp.got = make([][]byte, 0, fp.nsegs), 0
		}
		for len(fp.segs) < fp.nsegs {
			if fp.seg == nil {
				if !iovec.Fill(fp.hdr[:4], &fp.got, &data) {
					return
				}
				fp.seg, fp.got = make([]byte, iovec.NewReader(fp.hdr[:4]).U32()), 0
			}
			if !iovec.Fill(fp.seg, &fp.got, &data) {
				return
			}
			fp.segs = append(fp.segs, fp.seg)
			fp.seg, fp.got = nil, 0
		}
		segs := fp.segs
		fp.segs = nil
		emit(segs)
	}
}

// VLinkLink is a per-link adapter over a full VLink (alternate methods
// included).
type VLinkLink struct {
	v *vlink.VLink
}

// NewVLinkLink wires an established VLink to the circuit as the link to
// rank src.
func NewVLinkLink(v *vlink.VLink, circ *Circuit, src int) *VLinkLink {
	l := &VLinkLink{v: v}
	fp := &frameParser{}
	buf := make([]byte, 64<<10)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		if n > 0 {
			fp.feed(buf[:n], func(segs [][]byte) { circ.Deliver(src, segs) })
		}
		if err != nil {
			return
		}
		v.PostRead(buf).SetHandler(pump)
	}
	v.PostRead(buf).SetHandler(pump)
	return l
}

// Name implements LinkAdapter.
func (l *VLinkLink) Name() string { return "vlink" }

// Close shuts the underlying VLink down.
func (l *VLinkLink) Close() { l.v.Close() }

// Send implements LinkAdapter.
func (l *VLinkLink) Send(segs [][]byte) {
	l.v.PostWrite(frameMessage(segs))
}

// ---------------------------------------------------------------------
// Loopback adapter: rank talks to itself.

// LoopbackLink delivers back into the same circuit.
type LoopbackLink struct {
	k    *vtime.Kernel
	circ *Circuit
	self int
}

// NewLoopbackLink builds the self-link for a circuit.
func NewLoopbackLink(k *vtime.Kernel, circ *Circuit, self int) *LoopbackLink {
	return &LoopbackLink{k: k, circ: circ, self: self}
}

// Name implements LinkAdapter.
func (l *LoopbackLink) Name() string { return "loopback" }

// Send implements LinkAdapter.
func (l *LoopbackLink) Send(segs [][]byte) {
	l.k.Schedule(500*time.Nanosecond, func() { l.circ.Deliver(l.self, segs) })
}
