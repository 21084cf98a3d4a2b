// Package ipstack implements the "system-level TCP/IP" of the testbed:
// hosts with per-destination routes, UDP datagram sockets and a small
// Reno TCP (slow start, congestion avoidance, fast retransmit, RTO
// backoff, cumulative ACKs, out-of-order reassembly, flow control).
//
// It plays the role the OS socket layer plays in the paper: SysIO
// (internal/netaccess) arbitrates access to these sockets, and the
// distributed-paradigm stack (VLink and everything above it) ultimately
// bottoms out here when running on LAN/WAN resources. WAN behaviour in
// the paper's evaluation — the 9 MB/s window-limited VTHD streams, the
// 150 KB/s collapse on the lossy trans-continental link — emerges from
// this protocol's dynamics rather than from hard-coded figures.
package ipstack

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"padico/internal/iovec"
	"padico/internal/netsim"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Protocol numbers for the IP header.
const (
	protoTCP = 6
	protoUDP = 17
)

// Header sizes charged as wire overhead.
const (
	tcpHeader = 40 // IP + TCP
	udpHeader = 28 // IP + UDP
)

// Default socket buffer sizes. The 160 KiB receive window is what makes
// a single VTHD stream land at the paper's ~9 MB/s (160 KiB / 16 ms RTT).
const (
	DefaultSndBuf = 256 << 10
	DefaultRcvBuf = 160 << 10
)

// Exported errors.
var (
	ErrRefused   = errors.New("ipstack: connection refused")
	ErrClosed    = errors.New("ipstack: use of closed connection")
	ErrNoRoute   = errors.New("ipstack: no route to host")
	ErrPortInUse = errors.New("ipstack: port already in use")
	ErrHostDown  = errors.New("ipstack: host is down")
)

// ipHeader is carried in netsim.Packet.Meta.
type ipHeader struct {
	proto    int
	src, dst topology.NodeID
	srcPort  int
	dstPort  int
	nw       string     // TCP only: named network the segment travels on ("" = default route)
	seg      *tcpSeg    // TCP only
	tp       *tcpPacket // TCP only: owning pooled packet (payload + recycling)
}

// tcpSeg is the TCP-specific part of a packet.
type tcpSeg struct {
	syn, ack, fin bool
	seq           int64      // stream offset of the first payload byte (or of FIN)
	ackNo         int64      // cumulative ack (valid if ack)
	wnd           int        // advertised receive window
	ts            vtime.Time // sender timestamp
	ets           vtime.Time // echoed timestamp (for RTT sampling)
}

// route is a unidirectional way to reach one destination host.
type route struct {
	mtu  int
	send func(pkt *netsim.Packet)
}

// Stack owns all hosts of a simulation.
type Stack struct {
	k      *vtime.Kernel
	hosts  map[topology.NodeID]*Host
	tpFree []*tcpPacket // pooled TCP packets (single-threaded kernel)
	// srtt holds the latest smoothed RTT estimate per directed host
	// pair, updated on every TCP RTT sample. Pure bookkeeping (no
	// events): network-weather monitors read it as a passive latency
	// observation, free-riding on whatever traffic already flows.
	srtt map[[2]topology.NodeID]time.Duration

	stats Stats
	// Telemetry handles, nil (free no-ops) until SetTelemetry.
	tel  *telemetry.Hub
	hRTT *telemetry.Histogram
}

// Stats counts the stack's TCP activity, all hosts together; bound
// into the telemetry registry under "ipstack." by SetTelemetry.
type Stats struct {
	TCPSegsSent    int64
	TCPRetransmits int64
}

// New creates an empty stack on the kernel.
func New(k *vtime.Kernel) *Stack {
	return &Stack{
		k: k, hosts: make(map[topology.NodeID]*Host),
		srtt: make(map[[2]topology.NodeID]time.Duration),
	}
}

// SetTelemetry wires the stack into a telemetry hub: retransmit and
// segment counters plus the per-sample RTT histogram go to the unified
// registry, and retransmits emit trace instants when tracing is on.
func (s *Stack) SetTelemetry(h *telemetry.Hub) {
	if h == nil || s.tel != nil {
		return
	}
	s.tel = h
	// The hub counts from its attach on, like iovec.pool_gets: traffic
	// the stack carried before is not in its registry.
	s.stats = Stats{}
	reg := h.Registry()
	reg.BindStruct("ipstack", &s.stats)
	s.hRTT = reg.Histogram("ipstack.rtt")
}

// SRTT returns the most recent smoothed TCP RTT estimate measured from
// a to b (by any connection), and whether one exists.
func (s *Stack) SRTT(a, b topology.NodeID) (time.Duration, bool) {
	d, ok := s.srtt[[2]topology.NodeID{a, b}]
	return d, ok
}

// Host returns (creating it on first use) the protocol endpoint of a
// node.
func (s *Stack) Host(id topology.NodeID) *Host {
	h, ok := s.hosts[id]
	if !ok {
		h = &Host{
			stack: s, id: id,
			listeners: make(map[int]*Listener),
			udp:       make(map[int]*UDPConn),
			conns:     make(map[connKey]*TCPConn),
			routes:    make(map[topology.NodeID]*route),
			nextPort:  40000,
		}
		s.hosts[id] = h
	}
	return h
}

// Kernel returns the stack's kernel.
func (s *Stack) Kernel() *vtime.Kernel { return s.k }

// KillHost crashes node n: the host answers no further traffic, every
// listener and UDP socket closes, and every established TCP connection
// fails promptly on both ends (no FIN, no timeout wait — exactly what a
// power loss looks like from the peer's side is delivered explicitly so
// callback layers error out instead of stalling on RTO silence).
// Teardown walks ports and connection keys in sorted order so the event
// sequence is deterministic. Idempotent.
func (s *Stack) KillHost(n topology.NodeID) {
	h, ok := s.hosts[n]
	if !ok || h.dead {
		return
	}
	h.dead = true
	if s.tel != nil {
		s.tel.Note("ipstack", "host crashed", int(n), int64(len(h.conns)), 0)
	}
	lports := make([]int, 0, len(h.listeners))
	for p := range h.listeners {
		lports = append(lports, p)
	}
	slices.Sort(lports)
	for _, p := range lports {
		h.listeners[p].Close()
	}
	uports := make([]int, 0, len(h.udp))
	for p := range h.udp {
		uports = append(uports, p)
	}
	slices.Sort(uports)
	for _, p := range uports {
		h.udp[p].Close()
	}
	keys := make([]connKey, 0, len(h.conns))
	for k := range h.conns {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b connKey) int {
		if a.remote != b.remote {
			return int(a.remote) - int(b.remote)
		}
		if a.localPort != b.localPort {
			return a.localPort - b.localPort
		}
		return a.remotePort - b.remotePort
	})
	for _, k := range keys {
		c := h.conns[k]
		if c == nil {
			continue
		}
		c.Fail()
		if ph, ok := s.hosts[k.remote]; ok {
			peer := connKey{remote: n, remotePort: k.localPort, localPort: k.remotePort}
			if pc, ok := ph.conns[peer]; ok {
				pc.Fail()
			}
		}
	}
}

// ConnectLAN attaches two hosts to a shared fabric and installs routes
// between them. Call once per unordered pair; addresses are the nodes'
// attachment addresses on the fabric.
func (s *Stack) ConnectLAN(f netsim.Fabric, a topology.NodeID, addrA int,
	b topology.NodeID, addrB int, mtu int) {
	s.ConnectLANVia("", f, a, addrA, b, addrB, mtu)
}

// ConnectLANVia is ConnectLAN with the route registered under a network
// name, so multi-homed hosts can be told which wire to dial on (DialVia).
// The pair's default route is only claimed when none exists yet — the
// first network wired between a pair is its default.
func (s *Stack) ConnectLANVia(nw string, f netsim.Fabric, a topology.NodeID, addrA int,
	b topology.NodeID, addrB int, mtu int) {
	ha, hb := s.Host(a), s.Host(b)
	ha.ensureAttached(f, addrA)
	hb.ensureAttached(f, addrB)
	ha.addRoute(b, nw, &route{mtu: mtu, send: func(pkt *netsim.Packet) {
		pkt.Src, pkt.Dst = addrA, addrB
		f.Send(pkt)
	}})
	hb.addRoute(a, nw, &route{mtu: mtu, send: func(pkt *netsim.Packet) {
		pkt.Src, pkt.Dst = addrB, addrA
		f.Send(pkt)
	}})
}

// ConnectPath installs a WAN route between two hosts using a dedicated
// netsim.Path per direction.
func (s *Stack) ConnectPath(a, b topology.NodeID, ab, ba *netsim.Path, mtu int) {
	s.ConnectPathVia("", a, b, ab, ba, mtu)
}

// ConnectPathVia is ConnectPath with the route registered under a
// network name (see ConnectLANVia).
func (s *Stack) ConnectPathVia(nw string, a, b topology.NodeID, ab, ba *netsim.Path, mtu int) {
	ha, hb := s.Host(a), s.Host(b)
	ab.SetDeliver(hb.input)
	ba.SetDeliver(ha.input)
	ha.addRoute(b, nw, &route{mtu: mtu, send: ab.Send})
	hb.addRoute(a, nw, &route{mtu: mtu, send: ba.Send})
}

// connKey identifies an established TCP connection on a host.
type connKey struct {
	remote     topology.NodeID
	remotePort int
	localPort  int
}

// viaKey identifies a named route: the destination host plus the
// network the route rides on.
type viaKey struct {
	dst topology.NodeID
	nw  string
}

// Host is one node's transport endpoint.
type Host struct {
	stack     *Stack
	id        topology.NodeID
	attached  map[netsim.Fabric]bool
	listeners map[int]*Listener
	udp       map[int]*UDPConn
	conns     map[connKey]*TCPConn
	routes    map[topology.NodeID]*route
	vias      map[viaKey]*route // named routes for multi-homed pairs
	nextPort  int
	dead      bool // crashed: no traffic in or out
}

// ID returns the host's node id.
func (h *Host) ID() topology.NodeID { return h.id }

// addRoute registers a route toward dst: under its network name when
// one is given, and as the pair's default when no default exists yet.
func (h *Host) addRoute(dst topology.NodeID, nw string, rt *route) {
	if nw != "" {
		if h.vias == nil {
			h.vias = make(map[viaKey]*route)
		}
		h.vias[viaKey{dst: dst, nw: nw}] = rt
	}
	if _, ok := h.routes[dst]; !ok || nw == "" {
		h.routes[dst] = rt
	}
}

// routeTo resolves the route toward dst: the named one when nw is set
// and registered, the pair's default otherwise.
func (h *Host) routeTo(dst topology.NodeID, nw string) (*route, bool) {
	if nw != "" {
		if rt, ok := h.vias[viaKey{dst: dst, nw: nw}]; ok {
			return rt, true
		}
	}
	rt, ok := h.routes[dst]
	return rt, ok
}

func (h *Host) ensureAttached(f netsim.Fabric, addr int) {
	if h.attached == nil {
		h.attached = make(map[netsim.Fabric]bool)
	}
	if !h.attached[f] {
		f.Attach(addr, h.input)
		h.attached[f] = true
	}
}

func (h *Host) ephemeralPort() int {
	h.nextPort++
	return h.nextPort
}

// input demultiplexes an arriving packet. Runs in kernel context.
func (h *Host) input(pkt *netsim.Packet) {
	hdr := pkt.Meta.(*ipHeader)
	if h.dead {
		// A crashed host answers nothing: the packet vanishes exactly as
		// on a powered-off machine, and the sender's own protocol (RTO,
		// SYN timeout) discovers the silence.
		if hdr.proto == protoTCP {
			hdr.tp.release()
		}
		return
	}
	switch hdr.proto {
	case protoUDP:
		if u, ok := h.udp[hdr.dstPort]; ok {
			u.deliver(hdr, pkt.Payload)
		}
	case protoTCP:
		tp := hdr.tp
		key := connKey{remote: hdr.src, remotePort: hdr.srcPort, localPort: hdr.dstPort}
		if c, ok := h.conns[key]; ok {
			c.segment(hdr.seg, tp.pl)
		} else if hdr.seg.syn && !hdr.seg.ack {
			if ln, ok := h.listeners[hdr.dstPort]; ok {
				ln.handleSYN(hdr)
			}
			// No listener: refuse by dropping; the dialer times out.
		}
		// The receiver copied (in-order) or cloned (out-of-order) what it
		// keeps; the transmission's own payload references end here.
		tp.release()
	}
}

// ---------------------------------------------------------------------
// TCP listener.

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	host    *Host
	port    int
	backlog *vtime.Queue[*TCPConn]
	closed  bool
}

// Listen binds a TCP listener to port.
func (h *Host) Listen(port int) (*Listener, error) {
	if h.dead {
		return nil, ErrHostDown
	}
	if _, dup := h.listeners[port]; dup {
		return nil, ErrPortInUse
	}
	ln := &Listener{
		host: h, port: port,
		backlog: vtime.NewQueue[*TCPConn](fmt.Sprintf("accept:%d:%d", h.id, port)),
	}
	h.listeners[port] = ln
	return ln, nil
}

// Port returns the bound port.
func (ln *Listener) Port() int { return ln.port }

// handleSYN creates the server-side connection and replies SYN|ACK.
func (ln *Listener) handleSYN(hdr *ipHeader) {
	if ln.closed {
		return
	}
	h := ln.host
	// Reply on the wire the SYN arrived on: a multi-homed dialer that
	// picked a named network gets its return traffic on the same one.
	rt, ok := h.routeTo(hdr.src, hdr.nw)
	if !ok {
		return
	}
	c := newTCPConn(h, hdr.src, ln.port, hdr.srcPort, rt, hdr.nw)
	c.established = true
	h.conns[connKey{remote: hdr.src, remotePort: hdr.srcPort, localPort: ln.port}] = c
	c.sendSeg(tcpSeg{syn: true, ack: true, wnd: c.rcvWnd(), ts: h.stack.k.Now(), ets: hdr.seg.ts}, 0, 0)
	ln.backlog.Push(c)
}

// Accept blocks until an inbound connection is available.
func (ln *Listener) Accept(p *vtime.Proc) (*TCPConn, error) {
	if ln.closed {
		return nil, ErrClosed
	}
	return ln.backlog.Pop(p), nil
}

// AcceptTimeout is Accept bounded by d.
func (ln *Listener) AcceptTimeout(p *vtime.Proc, d time.Duration) (*TCPConn, bool) {
	return ln.backlog.PopTimeout(p, d)
}

// SetReadyHandler installs a callback fired (in kernel context) whenever
// a connection lands in the accept backlog; used by SysIO.
func (ln *Listener) SetReadyHandler(fn func()) { ln.backlog.OnPush = fn }

// Pending returns the number of connections waiting to be accepted.
func (ln *Listener) Pending() int { return ln.backlog.Len() }

// Close unbinds the listener.
func (ln *Listener) Close() {
	ln.closed = true
	delete(ln.host.listeners, ln.port)
}

// ---------------------------------------------------------------------
// UDP.

// UDPDatagram is one received datagram.
type UDPDatagram struct {
	From     topology.NodeID
	FromPort int
	Data     []byte
}

// UDPConn is a bound UDP socket.
type UDPConn struct {
	host   *Host
	port   int
	rx     *vtime.Queue[UDPDatagram]
	rxCap  int
	closed bool
	Drops  int64
}

// ListenUDP binds a UDP socket; port 0 picks an ephemeral port.
func (h *Host) ListenUDP(port int) (*UDPConn, error) {
	if h.dead {
		return nil, ErrHostDown
	}
	if port == 0 {
		port = h.ephemeralPort()
	}
	if _, dup := h.udp[port]; dup {
		return nil, ErrPortInUse
	}
	u := &UDPConn{
		host: h, port: port, rxCap: 256,
		rx: vtime.NewQueue[UDPDatagram](fmt.Sprintf("udp:%d:%d", h.id, port)),
	}
	h.udp[port] = u
	return u, nil
}

// Port returns the bound port.
func (u *UDPConn) Port() int { return u.port }

// MTU returns the path MTU toward dst minus the UDP/IP header, i.e. the
// largest datagram payload that can be sent.
func (u *UDPConn) MTU(dst topology.NodeID) (int, error) {
	rt, ok := u.host.routes[dst]
	if !ok {
		return 0, ErrNoRoute
	}
	return rt.mtu - udpHeader, nil
}

// SendTo transmits one datagram (unreliable, unordered under loss).
func (u *UDPConn) SendTo(dst topology.NodeID, dstPort int, data []byte) error {
	if u.closed {
		return ErrClosed
	}
	rt, ok := u.host.routes[dst]
	if !ok {
		return ErrNoRoute
	}
	if len(data)+udpHeader > rt.mtu {
		return fmt.Errorf("ipstack: datagram of %d bytes exceeds path MTU %d", len(data), rt.mtu)
	}
	rt.send(&netsim.Packet{
		Payload: data, Wire: len(data) + udpHeader,
		Meta: &ipHeader{proto: protoUDP, src: u.host.id, dst: dst,
			srcPort: u.port, dstPort: dstPort},
	})
	return nil
}

func (u *UDPConn) deliver(hdr *ipHeader, data []byte) {
	if u.closed {
		return
	}
	if u.rx.Len() >= u.rxCap {
		u.Drops++
		return
	}
	u.rx.Push(UDPDatagram{From: hdr.src, FromPort: hdr.srcPort, Data: data})
}

// Recv blocks until a datagram arrives.
func (u *UDPConn) Recv(p *vtime.Proc) UDPDatagram { return u.rx.Pop(p) }

// RecvTimeout is Recv bounded by d.
func (u *UDPConn) RecvTimeout(p *vtime.Proc, d time.Duration) (UDPDatagram, bool) {
	return u.rx.PopTimeout(p, d)
}

// Close unbinds the socket.
func (u *UDPConn) Close() {
	u.closed = true
	delete(u.host.udp, u.port)
}

// ---------------------------------------------------------------------
// TCP connection. See package comment for the feature set.

const (
	minRTO     = 200 * time.Millisecond
	maxRTO     = 10 * time.Second
	synTimeout = 3 * time.Second
)

// TCPConn is a reliable byte-stream connection.
type TCPConn struct {
	host       *Host
	remote     topology.NodeID
	localPort  int
	remotePort int
	rt         *route
	nw         string // named network the connection is pinned to ("" = default)
	mss        int

	established bool
	dialErr     error
	connCond    *vtime.Cond

	// Sender state.
	sndq       sendQueue // bytes [sndUna, sndEnd) not yet acked, in pooled blocks
	sndUna     int64
	sndNxt     int64
	sndEnd     int64 // total bytes written so far
	sndCap     int
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool  // NewReno fast recovery in progress
	recover    int64 // sndNxt when recovery was entered
	peerWnd    int
	// Re-arming the RTO on every ACK round is the hottest timer path in
	// the stack: an Alarm keeps one heap entry however often it moves.
	rtoAlarm   vtime.Alarm
	rto        time.Duration
	srtt       time.Duration
	rttvar     time.Duration
	finQueued  bool
	finSeq     int64 // == sndEnd when finQueued
	writeCond  *vtime.Cond
	writableCB func()
	wasFull    bool

	// Receiver state.
	rcvNxt int64
	// rcvBuf is a head-indexed FIFO: the backing array is recycled once
	// the reader drains it and compacted on growth, so a long-lived
	// flow whose reader never catches it exactly empty (a multicast
	// relay) stays O(window), not O(bytes streamed).
	rcvBuf   iovec.Fifo
	rcvCap   int
	ooo      map[int64]iovec.Vec // cloned (refcounted) out-of-order payloads
	oooBytes int
	peerFin  int64      // -1 until FIN received; then stream length
	lastTS   vtime.Time // timestamp of latest in-order segment, echoed in ACKs
	readCond *vtime.Cond
	readyCB  func()

	closed bool
	failed bool // torn down by peer death: reads surface the error promptly

	// Stats for tests and the bench harness.
	Retransmits int64
	SegsSent    int64
	SegsRecvd   int64
}

func newTCPConn(h *Host, remote topology.NodeID, localPort, remotePort int, rt *route, nw string) *TCPConn {
	name := fmt.Sprintf("tcp:%d:%d->%d:%d", h.id, localPort, remote, remotePort)
	c := &TCPConn{
		host: h, remote: remote, localPort: localPort, remotePort: remotePort,
		rt: rt, nw: nw, mss: rt.mtu - tcpHeader,
		sndCap: DefaultSndBuf, rcvCap: DefaultRcvBuf,
		ssthresh: 1 << 30, peerWnd: DefaultRcvBuf,
		rto: time.Second, peerFin: -1,
		ooo:       make(map[int64]iovec.Vec),
		connCond:  vtime.NewCond(name + ":conn"),
		writeCond: vtime.NewCond(name + ":write"),
		readCond:  vtime.NewCond(name + ":read"),
	}
	c.cwnd = float64(2 * c.mss)
	c.rtoAlarm.Init(h.stack.k, c.onRTO)
	return c
}

// Dial opens a TCP connection to (dst, port), blocking p through the
// handshake.
func (h *Host) Dial(p *vtime.Proc, dst topology.NodeID, port int) (*TCPConn, error) {
	return h.DialVia(p, dst, port, "")
}

// DialVia is Dial pinned to a named network: the handshake and every
// segment of the connection travel the named route when one is
// registered (multi-homed pairs), the default route otherwise.
func (h *Host) DialVia(p *vtime.Proc, dst topology.NodeID, port int, nw string) (*TCPConn, error) {
	if h.dead {
		return nil, ErrHostDown
	}
	rt, ok := h.routeTo(dst, nw)
	if !ok {
		return nil, ErrNoRoute
	}
	c := newTCPConn(h, dst, h.ephemeralPort(), port, rt, nw)
	key := connKey{remote: dst, remotePort: port, localPort: c.localPort}
	h.conns[key] = c
	deadline := p.Now().Add(synTimeout)
	for try := 0; try < 3 && !c.established; try++ {
		c.sendSeg(tcpSeg{syn: true, wnd: c.rcvWnd(), ts: p.Now()}, 0, 0)
		c.connCond.WaitTimeout(p, time.Second)
		if p.Now() >= deadline {
			break
		}
	}
	if !c.established {
		delete(h.conns, key)
		return nil, ErrRefused
	}
	return c, nil
}

// Remote returns the peer node.
func (c *TCPConn) Remote() topology.NodeID { return c.remote }

// SetBuffers overrides the send/receive buffer sizes; call before
// transferring data.
func (c *TCPConn) SetBuffers(snd, rcv int) {
	if snd > 0 {
		c.sndCap = snd
	}
	if rcv > 0 {
		c.rcvCap = rcv
	}
}

// SetReadyHandler installs a callback fired in kernel context whenever
// data (or EOF) becomes available to Read; used by SysIO.
func (c *TCPConn) SetReadyHandler(fn func()) { c.readyCB = fn }

// PokeReady re-fires the ready callback if data is already pending;
// poll-style layers use it to re-arm interest after registering.
func (c *TCPConn) PokeReady() {
	if c.readyCB != nil && c.Readable() {
		c.readyCB()
	}
}

// Readable reports whether Read would return without blocking. A
// failed connection is always readable: the pending result is the
// error, and callback layers must learn about it promptly.
func (c *TCPConn) Readable() bool {
	return c.failed || c.rcvLen() > 0 || (c.peerFin >= 0 && c.rcvNxt >= c.peerFin)
}

// rcvLen returns the number of unconsumed received bytes.
func (c *TCPConn) rcvLen() int { return c.rcvBuf.Len() }

func (c *TCPConn) rcvWnd() int {
	w := c.rcvCap - c.rcvLen() - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

// sendSeg emits one segment whose payload is the send-queue byte range
// [off, off+n) — taken as retained views of the pooled blocks, not
// copied. n == 0 sends a bare control segment (SYN/ACK/FIN). off is
// relative to sndUna (the queue head). The pooled packet is recycled
// by the receiving host after processing, or by the fabric on a drop.
func (c *TCPConn) sendSeg(sg tcpSeg, off, n int64) {
	c.SegsSent++
	atomic.AddInt64(&c.host.stack.stats.TCPSegsSent, 1)
	if n > 0 && c.host.stack.tel.Tracing() {
		// Payload segments inherit the ambient request context, so the
		// lowest wire events still hang off the originating request root.
		c.host.stack.tel.Instant("ipstack", "tcp.seg", int(c.host.id)).
			I64("dst", int64(c.remote)).I64("bytes", n).End()
	}
	tp := c.host.stack.getTP()
	if n > 0 {
		c.sndq.view(int(off), int(n), &tp.pl)
	}
	tp.seg = sg
	tp.hdr = ipHeader{proto: protoTCP, src: c.host.id, dst: c.remote,
		srcPort: c.localPort, dstPort: c.remotePort, nw: c.nw, seg: &tp.seg, tp: tp}
	tp.pkt = netsim.Packet{Wire: int(n) + tcpHeader, Meta: &tp.hdr, Drop: tp.drop}
	c.rt.send(&tp.pkt)
}

// TryWriteVec queues as much of the segment vector v, from byte offset
// from, as fits in the send buffer without blocking and returns the
// number of bytes accepted. Used by callback-driven layers (SysIO/VLink)
// that must never block the I/O manager. The accepted bytes are copied
// once into the pooled send queue, the socket's single pack point.
func (c *TCPConn) TryWriteVec(v iovec.Vec, from int) int {
	if c.closed || c.finQueued {
		return 0
	}
	free := c.sndCap - c.sndq.size()
	if free <= 0 {
		c.wasFull = true
		return 0
	}
	n := v.Len() - from
	if n > free {
		n = free
	}
	c.sndq.growVec(v, from, n)
	c.sndEnd += int64(n)
	if c.sndq.size() == c.sndCap {
		c.wasFull = true
	}
	c.pump()
	return n
}

// Writable reports whether TryWriteVec would accept at least one byte.
func (c *TCPConn) Writable() bool {
	return !c.closed && !c.finQueued && c.sndq.size() < c.sndCap
}

// SetWritableHandler installs a callback fired in kernel context when
// send-buffer space opens up after having been full.
func (c *TCPConn) SetWritableHandler(fn func()) { c.writableCB = fn }

// Write queues the whole of b on the stream, blocking p while the send
// buffer is full.
func (c *TCPConn) Write(p *vtime.Proc, b []byte) error {
	for len(b) > 0 {
		if c.closed || c.finQueued {
			return ErrClosed
		}
		free := c.sndCap - c.sndq.size()
		if free == 0 {
			c.writeCond.Wait(p)
			continue
		}
		n := len(b)
		if n > free {
			n = free
		}
		c.sndq.grow(b[:n])
		c.sndEnd += int64(n)
		b = b[n:]
		c.pump()
	}
	return nil
}

// Read fills buf with available stream bytes, blocking p until at least
// one byte (or EOF) is available.
func (c *TCPConn) Read(p *vtime.Proc, buf []byte) (int, error) {
	for {
		if c.rcvLen() > 0 {
			n := copy(buf, c.rcvBuf.Bytes())
			c.rcvBuf.Consume(n)
			// Window may have reopened; let the peer know if it was shut.
			if c.rcvWnd() >= c.mss && c.rcvWnd()-n < c.mss {
				c.sendAck()
			}
			return n, nil
		}
		if c.peerFin >= 0 && c.rcvNxt >= c.peerFin {
			return 0, io.EOF
		}
		if c.closed {
			return 0, ErrClosed
		}
		c.readCond.Wait(p)
	}
}

// ReadFull reads exactly len(buf) bytes unless EOF intervenes.
func (c *TCPConn) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := c.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close sends FIN after any queued data. Reading remains possible until
// the peer's FIN.
func (c *TCPConn) Close() {
	if c.closed || c.finQueued {
		return
	}
	c.finQueued = true
	c.finSeq = c.sndEnd
	c.sndEnd++ // FIN occupies one sequence number
	c.pump()
}

// Fail tears the connection down because the peer (or the host itself)
// crashed: the abort is immediate, and callback-driven layers are woken
// so a pending sysio read or queued write surfaces the error instead of
// stalling until a timeout.
func (c *TCPConn) Fail() {
	if c.closed {
		return
	}
	c.failed = true
	c.Abort()
	if c.readyCB != nil {
		c.readyCB()
	}
	if c.writableCB != nil {
		c.writableCB()
	}
}

// Failed reports whether the connection was torn down by a crash
// (rather than an orderly Close/Abort).
func (c *TCPConn) Failed() bool { return c.failed }

// Abort tears the connection down immediately (no FIN exchange).
func (c *TCPConn) Abort() {
	c.closed = true
	c.rtoAlarm.Stop()
	c.sndq.reset()
	c.releaseOOO()
	delete(c.host.conns, connKey{remote: c.remote, remotePort: c.remotePort, localPort: c.localPort})
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
}

// flightLimit returns how many bytes may be outstanding.
func (c *TCPConn) flightLimit() int64 {
	w := int64(c.cwnd)
	if pw := int64(c.peerWnd); pw < w {
		w = pw
	}
	if w < int64(c.mss) {
		// Always allow one segment (zero-window probe simplification:
		// the window reopens via the reader's explicit ACK).
		if c.peerWnd == 0 {
			return 0
		}
		w = int64(c.mss)
	}
	return w
}

// pump transmits as much as window and data allow. Runs in kernel or
// proc context.
func (c *TCPConn) pump() {
	if c.closed {
		return
	}
	for {
		limit := c.sndUna + c.flightLimit()
		if c.sndNxt >= limit {
			break
		}
		if c.finQueued && c.sndNxt == c.finSeq {
			c.sendSeg(tcpSeg{fin: true, ack: true, seq: c.sndNxt,
				ackNo: c.rcvNxt, wnd: c.rcvWnd(), ts: c.host.stack.k.Now()}, 0, 0)
			c.sndNxt++
			break
		}
		avail := c.sndEnd - c.sndNxt
		if c.finQueued {
			avail-- // FIN's sequence slot is not data
		}
		if avail <= 0 {
			break
		}
		n := limit - c.sndNxt
		if n > avail {
			n = avail
		}
		if n > int64(c.mss) {
			n = int64(c.mss)
		}
		// Zero-copy transmit: the segment rides retained views of the
		// send-queue blocks instead of a per-segment make+copy.
		c.sendSeg(tcpSeg{ack: true, seq: c.sndNxt, ackNo: c.rcvNxt,
			wnd: c.rcvWnd(), ts: c.host.stack.k.Now()}, c.sndNxt-c.sndUna, n)
		c.sndNxt += n
	}
	c.armRTO()
}

func (c *TCPConn) armRTO() {
	switch {
	case c.sndUna == c.sndNxt: // nothing outstanding
		c.rtoAlarm.Stop()
	case !c.rtoAlarm.Armed():
		c.rtoAlarm.Set(c.host.stack.k.Now().Add(c.rto))
	}
}

func (c *TCPConn) onRTO() {
	if c.closed || c.sndUna == c.sndNxt {
		return
	}
	// Multiplicative decrease and retransmit of the first unacked segment.
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = flight / 2
	if min := float64(2 * c.mss); c.ssthresh < min {
		c.ssthresh = min
	}
	c.cwnd = float64(c.mss)
	c.inRecovery = false
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	// Go-back-N: rewind and resend from the first unacked byte in slow
	// start. The receiver's reassembly buffer makes the cumulative ACKs
	// jump straight over whatever did arrive.
	c.sndNxt = c.sndUna
	c.Retransmits++
	c.noteRetransmit("rto")
	c.pump() // re-arms the (backed-off) RTO
}

// noteRetransmit feeds the telemetry hub: a counter bump always, plus a
// trace instant on the sender's lane when tracing is on.
func (c *TCPConn) noteRetransmit(why string) {
	s := c.host.stack
	atomic.AddInt64(&s.stats.TCPRetransmits, 1)
	if s.tel.Tracing() {
		s.tel.Instant("ipstack", "tcp.retransmit", int(c.host.id)).
			Str("why", why).
			I64("seq", c.sndUna).
			I64("dst", int64(c.remote)).End()
	}
}

// retransmitFirst resends the segment starting at sndUna.
func (c *TCPConn) retransmitFirst() {
	c.Retransmits++
	c.noteRetransmit("fast")
	if c.finQueued && c.sndUna == c.finSeq {
		c.sendSeg(tcpSeg{fin: true, ack: true, seq: c.sndUna,
			ackNo: c.rcvNxt, wnd: c.rcvWnd(), ts: c.host.stack.k.Now()}, 0, 0)
		return
	}
	n := c.sndNxt - c.sndUna
	if c.finQueued && c.sndUna+n > c.finSeq {
		n = c.finSeq - c.sndUna
	}
	if n > int64(c.mss) {
		n = int64(c.mss)
	}
	if n <= 0 {
		return
	}
	c.sendSeg(tcpSeg{ack: true, seq: c.sndUna, ackNo: c.rcvNxt,
		wnd: c.rcvWnd(), ts: c.host.stack.k.Now()}, 0, n)
}

func (c *TCPConn) sendAck() {
	c.sendSeg(tcpSeg{ack: true, ackNo: c.rcvNxt, wnd: c.rcvWnd(),
		ts: c.host.stack.k.Now(), ets: c.lastTS}, 0, 0)
}

// segment processes one arriving segment. Runs in kernel context. The
// payload vector is borrowed for the duration of the call (the caller
// recycles the transmission afterwards): in-order bytes are copied into
// the receive buffer, out-of-order payloads are cloned (which retains
// the sender's pooled blocks instead of copying).
func (c *TCPConn) segment(seg *tcpSeg, payload iovec.Vec) {
	if c.closed {
		return
	}
	c.SegsRecvd++

	// Handshake.
	if seg.syn && seg.ack && !c.established {
		c.established = true
		c.rttSample(seg.ets)
		c.connCond.Broadcast()
		c.sendAck()
		return
	}
	if seg.syn && !seg.ack {
		// Duplicate SYN: our SYN|ACK was lost; resend it.
		c.sendSeg(tcpSeg{syn: true, ack: true, wnd: c.rcvWnd(),
			ts: c.host.stack.k.Now(), ets: seg.ts}, 0, 0)
		return
	}
	plen := payload.Len()

	// ACK processing (sender side).
	if seg.ack {
		c.peerWnd = seg.wnd
		switch {
		case seg.ackNo > c.sndUna:
			acked := seg.ackNo - c.sndUna
			if c.finQueued && seg.ackNo > c.finSeq {
				// The FIN is acked, so every byte is: the partly filled
				// tail block, which drop never frees, goes back too.
				c.sndq.reset()
			} else {
				c.sndq.drop(int(acked))
			}
			c.sndUna = seg.ackNo
			if c.sndNxt < c.sndUna {
				c.sndNxt = c.sndUna
			}
			c.dupAcks = 0
			if c.inRecovery {
				if seg.ackNo < c.recover {
					// NewReno partial ack: the next hole is known lost;
					// retransmit it immediately instead of waiting for
					// three more dupacks or an RTO.
					c.retransmitFirst()
				} else {
					c.inRecovery = false
					c.cwnd = c.ssthresh
				}
			}
			c.rttSample(seg.ets)
			// Congestion window growth (RFC 5681: at most one SMSS per ACK
			// in slow start, so cumulative jumps after reassembly do not
			// overshoot).
			if c.cwnd < c.ssthresh {
				inc := float64(acked)
				if m := float64(c.mss); inc > m {
					inc = m
				}
				c.cwnd += inc // slow start
			} else {
				c.cwnd += float64(c.mss) * float64(acked) / c.cwnd // CA
			}
			// Fresh RTO for the remaining flight.
			c.rtoAlarm.Stop()
			c.writeCond.Broadcast()
			if c.wasFull && c.Writable() {
				c.wasFull = false
				if c.writableCB != nil {
					c.writableCB()
				}
			}
			c.pump()
		case seg.ackNo == c.sndUna && c.sndNxt > c.sndUna && plen == 0 && !seg.fin:
			c.dupAcks++
			switch {
			case c.dupAcks == 3 && !c.inRecovery:
				// Fast retransmit, enter NewReno fast recovery.
				flight := float64(c.sndNxt - c.sndUna)
				c.ssthresh = flight / 2
				if min := float64(2 * c.mss); c.ssthresh < min {
					c.ssthresh = min
				}
				c.cwnd = c.ssthresh + float64(3*c.mss)
				c.inRecovery = true
				c.recover = c.sndNxt
				c.retransmitFirst()
			case c.inRecovery:
				// Window inflation: each dupack signals a departed
				// segment, letting new data keep the pipe full.
				c.cwnd += float64(c.mss)
				c.pump()
			}
		}
	}

	// Data / FIN processing (receiver side). Segments may overlap
	// arbitrarily (retransmissions are cut at mss boundaries that need
	// not match the original transmission), so both the in-order path
	// and the out-of-order drain trim duplicates by stream offset.
	advanced := false
	if plen > 0 {
		end := seg.seq + int64(plen)
		switch {
		case end <= c.rcvNxt:
			// Complete duplicate: ack only.
		case seg.seq <= c.rcvNxt:
			skip := int(c.rcvNxt - seg.seq)
			payload.CopyToFrom(c.rcvBuf.Grow(plen-skip), skip)
			c.rcvNxt = end
			c.lastTS = seg.ts
			c.drainOOO()
			advanced = true
		default: // a hole precedes this segment
			if _, dup := c.ooo[seg.seq]; !dup && c.oooBytes+plen <= c.rcvCap {
				// Clone retains the sender's pooled blocks — the bytes are
				// parked by reference until the hole fills.
				c.ooo[seg.seq] = payload.Clone()
				c.oooBytes += plen
			}
		}
		// Ack everything (including duplicates — that's what generates
		// the dupacks driving fast retransmit on the other side).
		c.sendAck()
	}
	if seg.fin {
		if seg.seq == c.rcvNxt && c.peerFin < 0 {
			c.peerFin = seg.seq
			c.rcvNxt = seg.seq + 1
			advanced = true
		}
		c.sendAck()
	}
	if advanced {
		c.readCond.Broadcast()
		if c.readyCB != nil {
			c.readyCB()
		}
	}
}

// drainOOO folds every buffered out-of-order segment that is now
// (partially) in order into rcvBuf, trimming overlaps. Keys are scanned
// in sorted order so behaviour is deterministic.
func (c *TCPConn) drainOOO() {
	for {
		progressed := false
		keys := make([]int64, 0, len(c.ooo))
		for seq := range c.ooo {
			keys = append(keys, seq)
		}
		slices.Sort(keys)
		for _, seq := range keys {
			pl := c.ooo[seq]
			n := pl.Len()
			end := seq + int64(n)
			switch {
			case end <= c.rcvNxt: // fully duplicate now
				delete(c.ooo, seq)
				c.oooBytes -= n
				pl.Release()
			case seq <= c.rcvNxt: // extends the contiguous stream
				delete(c.ooo, seq)
				c.oooBytes -= n
				skip := int(c.rcvNxt - seq)
				pl.CopyToFrom(c.rcvBuf.Grow(n-skip), skip)
				c.rcvNxt = end
				pl.Release()
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// releaseOOO drops every parked out-of-order payload (abort path).
func (c *TCPConn) releaseOOO() {
	for seq, pl := range c.ooo {
		pl.Release()
		delete(c.ooo, seq)
	}
	c.oooBytes = 0
}

func (c *TCPConn) rttSample(ets vtime.Time) {
	if ets == 0 {
		return
	}
	sample := c.host.stack.k.Now().Sub(ets)
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	c.host.stack.srtt[[2]topology.NodeID{c.host.id, c.remote}] = c.srtt
	c.host.stack.hRTT.Observe(sample)
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}
