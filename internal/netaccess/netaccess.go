// Package netaccess implements the paper's arbitration layer (§3.3,
// §4.1): the only client of system-level networking resources, giving
// every layer above a consistent, reentrant and multiplexed view.
//
// Three pieces, as in PadicoTM:
//
//   - MadIO: logical multiplexing over Madeleine channels. The hardware
//     allows 2 channels on Myrinet and 1 on SCI; MadIO multiplexes an
//     arbitrary number of logical channels over one of them, with
//     *header combining*: the demultiplexing header travels as one more
//     segment of the same hardware message, so multiplexing costs
//     almost nothing (paper: "less than 0.1 µs"). The combining can be
//     disabled to measure the alternative (a separate header message).
//
//   - SysIO: a unique receipt loop over system sockets. Registered
//     sockets signal readiness; the loop invokes user callbacks, which
//     removes the reentrance and starvation problems of mixing
//     blocking I/O, signals and active polling (paper §4.1).
//
//   - Core: one I/O manager that interleaves MadIO and SysIO
//     dispatching under a user-tunable fairness policy
//     (SetPriority), and parks when idle.
//
// All callbacks run on the node's I/O manager process; they must not
// block (they may Consume CPU time).
package netaccess

import (
	"fmt"

	"padico/internal/iovec"
	"padico/internal/ipstack"
	"padico/internal/madapi"
	"padico/internal/model"
	"padico/internal/vtime"
)

// Source is anything the core can poll for one dispatchable event.
type Source interface {
	// DispatchOne handles at most one pending event; it reports whether
	// it did any work. p is the I/O manager process (for Consume).
	DispatchOne(p *vtime.Proc) bool
	// Name identifies the source in diagnostics.
	Name() string
	// Parallel reports whether this source feeds the parallel-paradigm
	// side (MadIO) or the distributed side (SysIO) of the fairness policy.
	Parallel() bool
}

// NetAccess is the per-node arbitration instance.
type NetAccess struct {
	k       *vtime.Kernel
	name    string
	sources []Source
	work    *vtime.Cond
	madPrio int
	sysPrio int

	Dispatches int64
}

// New creates the arbitration layer for one node and starts its I/O
// manager daemon.
func New(k *vtime.Kernel, name string) *NetAccess {
	na := &NetAccess{
		k: k, name: name,
		work:    vtime.NewCond("netaccess:" + name),
		madPrio: 1, sysPrio: 1,
	}
	k.GoDaemon("ioman:"+name, na.loop)
	return na
}

// SetPriority tunes the interleaving policy: up to mad MadIO events are
// dispatched for every sys SysIO events (paper §4.1: "dynamically
// user-tunable through a configuration API").
func (na *NetAccess) SetPriority(mad, sys int) {
	if mad < 1 {
		mad = 1
	}
	if sys < 1 {
		sys = 1
	}
	na.madPrio, na.sysPrio = mad, sys
}

// AddSource registers a pollable source (a MadIO instance or the SysIO
// singleton register it themselves on construction).
func (na *NetAccess) AddSource(s Source) {
	na.sources = append(na.sources, s)
	na.kick()
}

// kick wakes the I/O manager; callable from kernel context.
func (na *NetAccess) kick() { na.work.Signal() }

// loop is the I/O manager: interleave parallel- and distributed-side
// dispatching according to the priority policy; park when idle.
func (na *NetAccess) loop(p *vtime.Proc) {
	for {
		worked := false
		// Parallel-side burst.
		for i := 0; i < na.madPrio; i++ {
			if !na.dispatchSide(p, true) {
				break
			}
			worked = true
		}
		// Distributed-side burst.
		for i := 0; i < na.sysPrio; i++ {
			if !na.dispatchSide(p, false) {
				break
			}
			worked = true
		}
		if !worked {
			na.work.Wait(p)
		}
	}
}

// dispatchSide dispatches one event from any source of the given side.
func (na *NetAccess) dispatchSide(p *vtime.Proc, parallel bool) bool {
	for _, s := range na.sources {
		if s.Parallel() != parallel {
			continue
		}
		if s.DispatchOne(p) {
			na.Dispatches++
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// MadIO

// Handler consumes one demultiplexed incoming message. It runs on the
// I/O manager process and must unpack the remaining segments and call
// EndUnpacking. It must not block.
type Handler func(p *vtime.Proc, src int, in madapi.InMessage)

// MadIO multiplexes logical channels over one Madeleine channel.
type MadIO struct {
	na        *NetAccess
	ch        madapi.Channel
	name      string
	combining bool
	handlers  map[uint16]Handler
	pendingID map[int]uint16 // src -> logical id of separated header already seen
	pendingOK map[int]bool
	// released remembers ids whose binding was removed: late messages
	// for them (a peer's sends in flight across a close — routine
	// during failure recovery) are dropped, not a protocol violation.
	released map[uint16]bool
	send     *vtime.DelayLine[packed] // the multiplexing cost, then EndPacking
	hdr      [2]byte                  // scratch: every Pack copies it

	MsgsSent    int64
	MsgsRecv    int64
	MsgsDropped int64
}

// NewMadIO builds a MadIO over a Madeleine channel and registers it
// with the arbitration core. combining selects header combining (the
// paper's design) or the separate-header ablation.
func NewMadIO(na *NetAccess, ch madapi.Channel, name string, combining bool) *MadIO {
	m := &MadIO{
		na: na, ch: ch, name: name, combining: combining,
		handlers:  make(map[uint16]Handler),
		pendingID: make(map[int]uint16),
		pendingOK: make(map[int]bool),
		released:  make(map[uint16]bool),
	}
	cost := model.MadIOCombinedCost
	if !combining {
		cost = model.MadIOSeparateCost
	}
	m.send = vtime.NewDelayLine(na.k, cost, endPacking)
	type notifiable interface{ SetRxNotify(func()) }
	if n, ok := ch.(notifiable); ok {
		n.SetRxNotify(na.kick)
	}
	na.AddSource(m)
	return m
}

// Name implements Source.
func (m *MadIO) Name() string { return "madio:" + m.name }

// Parallel implements Source.
func (m *MadIO) Parallel() bool { return true }

// Register binds a logical channel id to a handler. Ids are allocated
// by convention by the layers above (VLink, Circuit, middleware).
func (m *MadIO) Register(logical uint16, h Handler) {
	if _, dup := m.handlers[logical]; dup {
		panic(fmt.Sprintf("netaccess: logical channel %d registered twice on %s", logical, m.name))
	}
	delete(m.released, logical) // a recycled id is live again
	m.handlers[logical] = h
}

// Unregister removes a logical channel binding. Messages still in
// flight toward the id are dropped on arrival (see dispatch).
func (m *MadIO) Unregister(logical uint16) {
	delete(m.handlers, logical)
	m.released[logical] = true
}

// Send transmits segments on a logical channel to dst (a Madeleine
// rank). With combining, the 2-byte demux header is one more segment of
// the same hardware message; without, it is a separate message.
//
// The segments are lent, not copied (madapi.SendLater): the receiving
// handler's Unpack returns this very memory, so it must stay valid and
// unmodified until the receiver is done with the message. A caller
// whose own contract ends the borrow earlier copies first.
func (m *MadIO) Send(dst int, logical uint16, segs ...[]byte) {
	msg := m.begin(dst, logical)
	for _, s := range segs {
		msg.body.Pack(s, madapi.SendLater)
	}
	m.send.Push(msg)
}

// SendVec is Send with a protocol header and buffer references: hdr's
// segments lead and are copied (madapi.SendSafer), so the caller may
// reuse them at once; v's pooled segments pass their references to the
// message (madapi.SegPacker), and the receiving handler takes them over
// with madapi.SegUnpacker.
func (m *MadIO) SendVec(dst int, logical uint16, hdr [][]byte, v iovec.Vec) {
	msg := m.begin(dst, logical)
	for _, h := range hdr {
		msg.body.Pack(h, madapi.SendSafer)
	}
	for _, s := range v.Segs {
		if s.Owner == nil {
			msg.body.Pack(s.B, madapi.SendLater)
		} else {
			msg.body.(madapi.SegPacker).PackSeg(s)
		}
	}
	m.send.Push(msg)
}

// packed is a message packed at the call and ended once the
// multiplexing cost has elapsed; hdr is the ablation's separate header
// message, nil with combining.
type packed struct{ hdr, body madapi.OutMessage }

func (m *MadIO) begin(dst int, logical uint16) packed {
	m.MsgsSent++
	iovec.NewWriter(m.hdr[:0]).PutU16(logical)
	out := m.ch.BeginPacking(dst)
	out.Pack(m.hdr[:], madapi.SendSafer)
	if m.combining {
		return packed{body: out}
	}
	return packed{hdr: out, body: m.ch.BeginPacking(dst)}
}

func endPacking(msg packed) {
	if msg.hdr != nil {
		msg.hdr.EndPacking()
	}
	msg.body.EndPacking()
}

// DispatchOne implements Source: demultiplex one hardware message.
func (m *MadIO) DispatchOne(p *vtime.Proc) bool {
	in, ok := m.ch.TryBeginUnpacking()
	if !ok {
		return false
	}
	cost := model.MadIOCombinedCost
	if !m.combining {
		cost = model.MadIOSeparateCost
	}
	p.Consume(cost)
	src := in.Src()
	if m.combining {
		m.dispatch(p, iovec.NewReader(in.Unpack(2, madapi.ReceiveExpress)).U16(), src, in)
		return true
	}
	// Separate-header mode: header and payload messages alternate per
	// source (MadIO controls both sides of the protocol).
	if !m.pendingOK[src] {
		m.pendingID[src] = iovec.NewReader(in.Unpack(2, madapi.ReceiveExpress)).U16()
		in.EndUnpacking()
		m.pendingOK[src] = true
		return true
	}
	logical := m.pendingID[src]
	m.pendingOK[src] = false
	m.dispatch(p, logical, src, in)
	return true
}

func (m *MadIO) dispatch(p *vtime.Proc, logical uint16, src int, in madapi.InMessage) {
	h, ok := m.handlers[logical]
	if !ok {
		if m.released[logical] {
			// The endpoint closed while this message was on the wire —
			// a normal race when a node crash tears channels down. The
			// bytes have nowhere to go; drop them.
			m.MsgsDropped++
			in.Discard()
			return
		}
		panic(fmt.Sprintf("netaccess: message for unregistered logical channel %d on %s", logical, m.name))
	}
	m.MsgsRecv++
	h(p, src, in)
}

// ---------------------------------------------------------------------
// SysIO

// SockHandler runs when a registered socket becomes ready; it must
// drain what it needs without blocking.
type SockHandler func(p *vtime.Proc)

// SysIO is the unique receipt loop over system sockets.
type SysIO struct {
	na    *NetAccess
	ready *vtime.Queue[*regEntry]

	Callbacks int64
}

type regEntry struct {
	cb       SockHandler
	queued   bool
	readable func() bool
}

// NewSysIO builds the SysIO subsystem and registers it with the core.
func NewSysIO(na *NetAccess) *SysIO {
	s := &SysIO{na: na, ready: vtime.NewQueue[*regEntry]("sysio:" + na.name)}
	s.ready.OnPush = na.kick
	na.AddSource(s)
	return s
}

// Name implements Source.
func (s *SysIO) Name() string { return "sysio" }

// Parallel implements Source.
func (s *SysIO) Parallel() bool { return false }

// DispatchOne implements Source: run one ready callback. A callback
// that deliberately leaves data unread re-arms itself through the
// socket's PokeReady (as the VLink sysio driver does on its next
// PostRead); unconditional requeueing would spin the manager.
func (s *SysIO) DispatchOne(p *vtime.Proc) bool {
	e, ok := s.ready.TryPop()
	if !ok {
		return false
	}
	e.queued = false
	s.Callbacks++
	e.cb(p)
	return true
}

// register wires an entry's readiness signal into the ready queue.
func (s *SysIO) register(setReady func(func()), readable func() bool, cb SockHandler) *regEntry {
	e := &regEntry{cb: cb, readable: readable}
	setReady(func() {
		if !e.queued {
			e.queued = true
			s.ready.Push(e)
		}
	})
	return e
}

// RegisterConn arranges for cb to run whenever conn has readable data
// (or EOF).
func (s *SysIO) RegisterConn(conn *ipstack.TCPConn, cb SockHandler) {
	s.register(conn.SetReadyHandler, conn.Readable, cb)
}

// RegisterListener arranges for cb to run whenever a connection is
// waiting to be accepted.
func (s *SysIO) RegisterListener(ln *ipstack.Listener, cb SockHandler) {
	s.register(ln.SetReadyHandler, func() bool { return ln.Pending() > 0 }, cb)
}
