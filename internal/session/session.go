// Package session is the paradigm-agnostic front door of the
// communication stack: one Open call per node pair, one Channel
// interface whatever substrate the Selector picks underneath.
//
// The paper's central claim (§4.2) is that middleware must never
// hand-pick its transport — the Selector chooses network, method and
// wrappers per pair from the topology knowledge base. Before this
// layer existed every consumer re-implemented that dispatch by hand
// (datagrid's paradigm switch, each example's driver wiring). The
// session Manager hoists it: Open consults selector.Select and
// transparently provisions
//
//   - a zero-cost local pipe when both endpoints are the same node,
//   - a cached, refcounted 2-rank Circuit moving segments with
//     Madeleine incremental packing inside a SAN (the parallel
//     paradigm),
//   - a VLink driver stack — sysio, striped pstreams, AdOC, gsec, the
//     VRP-class lossy methods — across LAN/WAN (the distributed
//     paradigm),
//
// behind one Channel exposing a message view (Send/Recv) and a stream
// view (Read/Write/ReadFull), plus Info reporting the Decision taken
// and transfer counters.
//
// QoS is per-channel: functional options on Open (WithStreams,
// WithCipher, WithCompression) override the Manager's default QoS for
// that channel only.
package session

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"padico/internal/circuit"
	"padico/internal/iovec"
	"padico/internal/madapi"
	"padico/internal/selector"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Exported errors.
var (
	// ErrClosed reports an operation on a closed channel end.
	ErrClosed = errors.New("session: channel closed")
	// ErrProtocol reports a message whose shape does not match what the
	// receiver asked for (segment sizes, stream framing).
	ErrProtocol = errors.New("session: protocol violation")
	// ErrPeerDown reports an operation on a channel whose peer (or own)
	// node crashed: the fault injector killed it via Manager.KillNode.
	ErrPeerDown = errors.New("session: peer node crashed")
)

// Channel is one end of an established session. Both ends expose the
// same two views, whatever the substrate:
//
// The message view (Send/Recv) preserves segment boundaries on
// message-oriented substrates (Circuit packing, the local pipe) and
// gather-writes with no added framing on stream substrates (VLink) —
// message delimiting on a stream is the caller's protocol concern,
// which is why Recv takes the expected segment sizes.
//
// The stream view (Read/Write/ReadFull) is a plain byte stream; on
// message substrates each Write travels as one self-describing message
// and Read returns payload bytes in order.
//
// All methods must run in proc context except Close, which is also
// callable from kernel context.
type Channel interface {
	// Send transmits one logical message as a vector of segments: one
	// packed message on a Circuit, one gather-write on a stream. The
	// segments are borrowed only until Send returns.
	Send(p *vtime.Proc, segs ...[]byte) error
	// Recv receives segments of exactly the given sizes, in order. On a
	// message substrate the sizes must match the packed segment
	// boundaries (buffered across calls, so one message may satisfy
	// several Recvs); on a stream substrate the total is read in one
	// ReadFull and sliced.
	Recv(p *vtime.Proc, sizes ...int) ([][]byte, error)
	// RecvVec is Recv returning the segments as one vector. The caller
	// must Release it (a no-op on message substrates, which hand out
	// borrowed views; an actual pool return on stream substrates, which
	// read into a pooled buffer).
	RecvVec(p *vtime.Proc, sizes ...int) (iovec.Vec, error)
	// Read delivers the next available payload bytes (up to len(buf)).
	Read(p *vtime.Proc, buf []byte) (int, error)
	// ReadFull blocks until len(buf) bytes arrived (or EOF).
	ReadFull(p *vtime.Proc, buf []byte) (int, error)
	// Write blocks until data is fully accepted by the substrate. Like
	// Send it ends the borrow: the caller may overwrite data
	// as soon as it returns.
	Write(p *vtime.Proc, data []byte) (int, error)
	// WriteLent is Write for a caller that vouches for its buffer — the
	// paper's send_LATER: the same bytes and events as Write, but data
	// may travel by reference and must stay immutable until the peer has
	// consumed it, which the caller learns from its own protocol (a
	// status frame coming back). Substrates that copy anyway (VLink,
	// adaptive) treat it as Write.
	WriteLent(p *vtime.Proc, data []byte) (int, error)
	// Remote returns the peer end of the session. In this simulated
	// single-process world the opener hands it to the destination
	// node's proc — the rendezvous the PadicoTM bootstrap would do.
	Remote() Channel
	// Info reports how the channel was provisioned and what it moved.
	Info() Info
	// Close releases this end; the session's substrate is released when
	// both ends are closed. The peer's pending reads complete with EOF
	// after draining. Closing twice is harmless.
	Close() error
}

// Info describes one channel end.
type Info struct {
	// Src is the end's own node, Dst its peer.
	Src, Dst topology.NodeID
	// Class is the selector's path classification for the pair.
	Class selector.PathClass
	// Decision is the concrete verdict the channel was built from. For
	// an adaptive channel it is the *current* decision — re-selection
	// updates it.
	Decision selector.Decision
	// Transfer counters, from this end's perspective.
	Sends, Recvs      int64
	BytesIn, BytesOut int64
	// Adaptive-channel counters (zero on static channels): decisions
	// changed under the session, and successful resume handshakes.
	Reselects, Resumes int64
}

// Substrate is what the Manager needs from the testbed builder to
// provision concrete transports: VLink driver stacks with an explicit
// decision, and Circuits over a node group. *grid.Grid satisfies it;
// session stays below grid in the import order.
type Substrate interface {
	DialVLinkWith(p *vtime.Proc, a, b topology.NodeID, dec selector.Decision) (*vlink.VLink, *vlink.VLink, error)
	NewCircuits(p *vtime.Proc, name string, nodes []topology.NodeID) ([]*circuit.Circuit, error)
}

// openConfig is what the functional options adjust: the channel's QoS
// plus session-level behaviour knobs that are not selector inputs.
type openConfig struct {
	qos      selector.QoS
	adaptive bool
}

// Option adjusts one Open.
type Option func(*openConfig)

// WithQoS replaces the channel's QoS wholesale.
func WithQoS(q selector.QoS) Option { return func(c *openConfig) { c.qos = q } }

// WithStreams sets the parallel-stream stripe count (1 disables).
func WithStreams(n int) Option { return func(c *openConfig) { c.qos.Streams = n } }

// WithCipher sets the channel's ciphering policy.
func WithCipher(p selector.CipherPolicy) Option { return func(c *openConfig) { c.qos.Cipher = p } }

// WithCompression enables or disables the AdOC wrapper preference.
func WithCompression(on bool) Option { return func(c *openConfig) { c.qos.Compress = on } }

// WithCollective marks the channel as one edge of a group-communication
// spanning tree: the payload is forwarded verbatim to the next tier, so
// the selector skips per-hop compression (see selector.QoS.Collective).
func WithCollective() Option { return func(c *openConfig) { c.qos.Collective = true } }

// WithAdaptive opens a self-healing channel: the session watches the
// weather (Manager.SetWeather) and, when the decision for the pair
// degrades past the hysteresis threshold — or the link goes down
// outright — transparently re-opens the substrate on the new best
// decision, preserving stream position through a sequence-numbered
// resume handshake. Without a weather service the channel behaves like
// a static one (framing aside).
func WithAdaptive() Option { return func(c *openConfig) { c.adaptive = true } }

// Weather is what the session layer needs from a network-weather
// service (internal/weather implements it): forecasts for the
// selector, a passive tap fed from channel transfer counters, and a
// subscription for forecast transitions (degraded-threshold crossings,
// outages) so adaptive channels can react to links that die under a
// blocked operation.
type Weather interface {
	selector.Oracle
	// ObserveTransfer folds one transfer-counter sample into the
	// passive bandwidth estimate for (src, dst) on the named network.
	// live marks a saturated-window measurement (the rate is the
	// link's); a non-live sample is a lifetime average that may
	// include idle time, i.e. only a lower bound on capacity.
	// Implementations must not incur virtual time.
	ObserveTransfer(src, dst topology.NodeID, network string, bytesOut int64, elapsed vtime.Duration, live bool)
	// Subscribe registers fn to run (in kernel context) whenever a
	// pair's forecast crosses a significance threshold. Callbacks fire
	// in subscription order (deterministic). The returned cancel
	// removes the subscription — short-lived subscribers (adaptive
	// channels) must call it or the service accumulates dead closures.
	Subscribe(fn func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast)) (cancel func())
}

// Stats counts Manager activity (for reporting and tests). Fields are
// bumped with atomic adds from kernel procs and read race-free through
// Manager.Stats; with telemetry attached they also appear in the
// unified registry under the "session." prefix.
type Stats struct {
	Opens                    int64
	LocalOpens, CircuitOpens int64
	VLinkOpens               int64 `metric:"vlink_opens"`
	// CircuitsBuilt / CircuitReuses / CircuitsClosed trace the per-pair
	// circuit cache: a build wires a fresh 2-rank circuit, a reuse
	// shares a live one, a close tears the circuit down after its last
	// session released it.
	CircuitsBuilt, CircuitReuses, CircuitsClosed int64
	// Adaptive-channel activity: sessions opened with WithAdaptive,
	// decision changes applied to live sessions, and successful resume
	// handshakes (every re-open that replayed and continued).
	AdaptiveOpens, Reselects, Resumes int64
}

// Manager is the per-grid session service. Middleware calls Open; the
// Manager consults the selector and owns the arbitration-adjacent
// caching (per-pair circuit reuse with refcounts — MadIO logical
// channels are a finite per-node resource, so overlapping SAN sessions
// share one circuit and the last release returns it).
type Manager struct {
	k        *vtime.Kernel
	topo     *topology.Grid
	sub      Substrate
	defaults func() selector.QoS
	weather  Weather

	pairs   map[[2]topology.NodeID]*pairCircuit
	circSeq int

	// Live channel-end registry, keyed by a monotonic id so KillNode can
	// walk the ends in provisioning order (map iteration must never leak
	// into event order). Pure bookkeeping: enrolling and retiring cost
	// no kernel events, so fault-free runs are byte-identical with it.
	liveSeq int64
	live    map[int64]liveEnd

	stats Stats

	// Telemetry handles, nil (free no-ops) until SetTelemetry.
	tel   *telemetry.Hub
	hOpen *telemetry.Histogram
}

// pairCircuit is one cached parallel-paradigm substrate: the 2-rank
// circuit pair, a semaphore serializing sessions on it (one message
// protocol at a time per pair), and the live-session refcount.
type pairCircuit struct {
	key   [2]topology.NodeID
	circs []*circuit.Circuit
	sem   *vtime.Semaphore
	refs  int
}

// NewManager builds the session service. defaults supplies the QoS
// applied when Open gets no overriding options — it is read per Open so
// a testbed may retune its default after construction.
func NewManager(k *vtime.Kernel, topo *topology.Grid, defaults func() selector.QoS, sub Substrate) *Manager {
	return &Manager{
		k: k, topo: topo, sub: sub, defaults: defaults,
		pairs: make(map[[2]topology.NodeID]*pairCircuit),
		live:  make(map[int64]liveEnd),
	}
}

// liveEnd is a provisioned end as the live registry sees it.
type liveEnd interface {
	Channel
	// fail ends the channel after a node crash: blocked and later
	// operations return promptly.
	fail(err error)
}

// enrol registers one freshly provisioned end in the live registry and
// returns its bookkeeping; observe arms the weather passive tap at its
// close.
func (m *Manager) enrol(ch liveEnd, observe bool) provisioned {
	m.liveSeq++
	m.live[m.liveSeq] = ch
	return provisioned{mgr: m, observe: observe, opened: m.k.Now(), regID: m.liveSeq}
}

// KillNode fails every live channel end touching the crashed node: a
// blocked Recv/Read on either side returns ErrPeerDown promptly instead
// of stalling, and later operations fail fast. The ipstack teardown
// (Stack.KillHost) covers TCP substrates on its own; this covers the
// message substrates (local pipes, SAN circuits) and closes the books
// on everything else. Ends are failed in provisioning order.
func (m *Manager) KillNode(n topology.NodeID) {
	ids := make([]int64, 0, len(m.live))
	for id := range m.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ch, ok := m.live[id]
		if !ok {
			continue // failed as the peer of an earlier end
		}
		if info := ch.Info(); info.Src == n || info.Dst == n {
			ch.fail(ErrPeerDown)
		}
	}
	m.tel.Note("session", "node killed", int(n), 0, 0)
}

// Default returns the QoS an optionless Open would use.
func (m *Manager) Default() selector.QoS { return m.defaults() }

// Stats returns a consistent copy of the manager's counters (each
// field loaded atomically).
func (m *Manager) Stats() Stats { return telemetry.Load(&m.stats) }

// SetTelemetry wires the manager into a telemetry hub: the Stats
// counters join the unified registry under "session.", open latencies
// feed a histogram, and opens/decisions emit spans when tracing is on.
func (m *Manager) SetTelemetry(h *telemetry.Hub) {
	if h == nil || m.tel != nil {
		return // idempotent: a second bind would double-count the stats
	}
	m.tel = h
	h.Registry().BindStruct("session", &m.stats)
	m.hOpen = h.Registry().Histogram("session.open_latency")
	// Backpressure gauges over the live-channel table: channel count,
	// receive backlog (messages delivered but not yet consumed), and
	// send backlog (messages handed to the substrate, not yet delivered
	// at the peer). Read at scrape time in kernel context — the same
	// sequential discipline as every other channel access.
	h.Registry().GaugeFunc("session.live_channels", func() int64 {
		return int64(len(m.live))
	})
	h.Registry().GaugeFunc("session.recv_backlog_msgs", func() int64 {
		var n int64
		for _, ch := range m.live {
			if c, ok := ch.(*msgChannel); ok {
				n += int64(c.pending())
			}
		}
		return n
	})
	h.Registry().GaugeFunc("session.send_inflight_msgs", func() int64 {
		var n int64
		for _, ch := range m.live {
			if c, ok := ch.(*msgChannel); ok && c.peer != nil {
				if d := c.sent - c.peer.delivered; d > 0 {
					n += int64(d)
				}
			}
		}
		return n
	})
}

// SetWeather attaches a network-weather service: from then on Open
// consults its forecasts, closed channels feed the passive bandwidth
// tap, and adaptive channels subscribe to its transitions. Call before
// traffic starts; detaching is not supported.
func (m *Manager) SetWeather(w Weather) { m.weather = w }

// Weather returns the attached weather service (nil without one).
func (m *Manager) Weather() Weather { return m.weather }

// Oracle returns the selector oracle consumers should pass to their own
// Select/ranking calls — nil when no weather service is attached, which
// callers must treat as "static knowledge base only".
func (m *Manager) Oracle() selector.Oracle {
	if m.weather == nil {
		return nil
	}
	return m.weather
}

// decide runs one oracle-aware selection for a pair (current is the
// incumbent decision when re-evaluating a live adaptive channel).
// Every verdict emits a selector trace instant carrying the chosen
// decision and the rejected alternative networks.
func (m *Manager) decide(src, dst topology.NodeID, qos selector.QoS, current *selector.Decision) (selector.Decision, error) {
	dec, err := selector.Select(m.topo, selector.Request{
		Src: src, Dst: dst, QoS: qos, Oracle: m.Oracle(), Current: current,
	})
	if err == nil && m.tel.Tracing() {
		chose := dec.Method // a local decision carries no network
		if dec.Network != nil {
			chose = dec.String()
		}
		sp := m.tel.Instant("selector", "decide", int(src)).
			I64("dst", int64(dst)).Str("chose", chose)
		if rej := m.rejectedAlternatives(src, dst, dec); rej != "" {
			sp.Str("rejected", rej)
		}
		sp.End()
	}
	return dec, err
}

// rejectedAlternatives lists the pair's common networks the selector
// did not pick — the "why this one" context a trace reader wants.
func (m *Manager) rejectedAlternatives(src, dst topology.NodeID, dec selector.Decision) string {
	var b strings.Builder
	for _, nw := range m.topo.Common(src, dst) {
		if dec.Network != nil && nw.Name == dec.Network.Name {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(nw.Name)
	}
	return b.String()
}

// Open establishes a channel from src to dst under the manager's
// default QoS adjusted by opts, provisioning whatever substrate the
// selector picks. It blocks p until the channel is usable. The caller
// owns the returned end; Remote() is the dst-side end.
func (m *Manager) Open(p *vtime.Proc, src, dst topology.NodeID, opts ...Option) (Channel, error) {
	cfg := openConfig{qos: m.defaults()}
	for _, o := range opts {
		o(&cfg)
	}
	dec, err := m.decide(src, dst, cfg.qos, nil)
	if err != nil {
		return nil, err
	}
	if cfg.adaptive {
		return m.openAdaptive(p, src, dst, cfg.qos, dec)
	}
	// Only selector-driven channels feed the passive tap at close:
	// pinned channels (weather probes measure themselves; adaptive
	// inner substrates report live windows spanning one decision) would
	// fold lifetime averages that mix conditions.
	return m.provision(p, src, dst, dec, true)
}

// OpenWith establishes a channel with an explicit decision, bypassing
// the selector. It is the pinned-path API: weather probes use it to
// measure one concrete network, and adaptive re-opens use it to
// provision the decision they already took.
func (m *Manager) OpenWith(p *vtime.Proc, src, dst topology.NodeID, dec selector.Decision) (Channel, error) {
	return m.provision(p, src, dst, dec, false)
}

// provision builds the substrate for one decision, under a
// "session.open" span and the open-latency histogram, and enrols both
// ends in the live registry (observe: see Open).
func (m *Manager) provision(p *vtime.Proc, src, dst topology.NodeID, dec selector.Decision, observe bool) (Channel, error) {
	cls := classOf(dec)
	atomic.AddInt64(&m.stats.Opens, 1)
	sp := m.tel.Begin("session", "open", int(src))
	if sp != nil {
		sp.I64("dst", int64(dst)).Str("method", dec.Method)
		if dec.Network != nil {
			sp.Str("network", dec.Network.Name)
		}
	}
	m.tel.Note("session", "open", int(src), int64(dst), int64(cls))
	t0 := m.k.Now()
	var ch Channel
	var err error
	switch {
	case cls == selector.PathLocal:
		atomic.AddInt64(&m.stats.LocalOpens, 1)
		ch = m.openLocal(src, dst, cls, dec, observe)
	case cls == selector.PathSAN && !dec.Secure && !dec.Compress:
		atomic.AddInt64(&m.stats.CircuitOpens, 1)
		ch, err = m.openCircuit(p, src, dst, cls, dec, observe)
	default:
		// Distributed substrate — also taken for SAN decisions that
		// demand protocol wrappers (CipherAlways, compression): the
		// bare madio circuit cannot cipher, but the VLink madio driver
		// composes with gsec/adoc, so the QoS is honoured rather than
		// silently dropped.
		atomic.AddInt64(&m.stats.VLinkOpens, 1)
		ch, err = m.openVLink(p, src, dst, cls, dec, observe)
	}
	m.hOpen.Observe(m.k.Now().Sub(t0))
	sp.End()
	return ch, err
}

// classOf derives the path class from the decision the selector
// already took — one dispatch source, no second topology scan, no way
// for substrate choice and decision to diverge.
func classOf(dec selector.Decision) selector.PathClass {
	switch dec.Method {
	case "loopback":
		return selector.PathLocal
	case "madio":
		return selector.PathSAN
	}
	switch dec.Network.Kind {
	case topology.Ethernet:
		return selector.PathLAN
	case topology.WAN:
		return selector.PathWAN
	default:
		return selector.PathLossy
	}
}

// observeClose feeds one closed channel's transfer counters to the
// weather service's passive tap (no-op without weather or network).
func (m *Manager) observeClose(info Info, opened vtime.Time) {
	if m.weather == nil || info.Decision.Network == nil {
		return
	}
	m.weather.ObserveTransfer(info.Src, info.Dst, info.Decision.Network.Name,
		info.BytesOut, m.k.Now().Sub(opened), false)
}

// openLocal provisions an in-memory pipe: same node, no network, no
// virtual-time cost beyond what the caller's own protocol charges.
func (m *Manager) openLocal(src, dst topology.NodeID, cls selector.PathClass, dec selector.Decision, observe bool) Channel {
	a := newMsgChannel(Info{Src: src, Dst: dst, Class: cls, Decision: dec})
	b := newMsgChannel(Info{Src: dst, Dst: src, Class: cls, Decision: dec})
	a.provisioned, b.provisioned = m.enrol(a, observe), m.enrol(b, observe)
	a.peer, b.peer = b, a
	a.sendf = func(segs [][]byte, lend bool) { b.deliver(copySegs(segs, lend)) }
	b.sendf = func(segs [][]byte, lend bool) { a.deliver(copySegs(segs, lend)) }
	return a
}

// openCircuit provisions (or shares) the pair's cached 2-rank circuit.
func (m *Manager) openCircuit(p *vtime.Proc, src, dst topology.NodeID, cls selector.PathClass, dec selector.Decision, observe bool) (Channel, error) {
	key := [2]topology.NodeID{src, dst}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	pc, ok := m.pairs[key]
	if !ok {
		// Wiring a SAN-only circuit never blocks (madio + loopback
		// links), so this check-then-build cannot interleave with
		// another proc's.
		m.circSeq++
		circs, err := m.sub.NewCircuits(p,
			fmt.Sprintf("session:%d-%d.%d", key[0], key[1], m.circSeq), key[:])
		if err != nil {
			return nil, err
		}
		pc = &pairCircuit{key: key, circs: circs,
			sem: vtime.NewSemaphore(fmt.Sprintf("session:pair:%d-%d", key[0], key[1]), 1)}
		m.pairs[key] = pc
		atomic.AddInt64(&m.stats.CircuitsBuilt, 1)
	} else {
		atomic.AddInt64(&m.stats.CircuitReuses, 1)
	}
	// Count the session before queueing on the semaphore so an earlier
	// session's release cannot tear the circuit down under us.
	pc.refs++
	pc.sem.Acquire(p)

	rank := func(n topology.NodeID) int {
		if key[0] == n {
			return 0
		}
		return 1
	}
	cs, cr := pc.circs[rank(src)], pc.circs[rank(dst)]
	a := newMsgChannel(Info{Src: src, Dst: dst, Class: cls, Decision: dec})
	b := newMsgChannel(Info{Src: dst, Dst: src, Class: cls, Decision: dec})
	a.provisioned, b.provisioned = m.enrol(a, observe), m.enrol(b, observe)
	a.peer, b.peer = b, a
	a.sendf = circuitSend(cs, rank(dst))
	b.sendf = circuitSend(cr, rank(src))
	attachCircuitRx(cs, a)
	attachCircuitRx(cr, b)
	// The session ends when both ends closed: release the pair, and
	// tear the circuit down when no other session holds it.
	open := 2
	release := func() {
		open--
		if open > 0 {
			return
		}
		pc.sem.Release()
		pc.refs--
		if pc.refs == 0 {
			for _, c := range pc.circs {
				c.Close()
			}
			delete(m.pairs, pc.key)
			atomic.AddInt64(&m.stats.CircuitsClosed, 1)
		}
	}
	a.closef, b.closef = release, release
	return a, nil
}

// circuitSend packs one message to the fixed peer rank. The circuit
// charges the abstraction cost; segments are copied (SendSafer) so
// callers may reuse their buffers, except a lent last segment, which is
// packed SendLater and reaches the peer's Unpack by reference.
func circuitSend(c *circuit.Circuit, dst int) func([][]byte, bool) {
	return func(segs [][]byte, lend bool) {
		out := c.BeginPacking(dst)
		for i, s := range segs {
			mode := madapi.SendSafer
			if lend && i == len(segs)-1 {
				mode = madapi.SendLater
			}
			out.Pack(s, mode)
		}
		out.EndPacking()
	}
}

// attachCircuitRx pumps the circuit's delivered messages into the
// channel end. Runs in kernel context on arrival; no virtual-time cost
// beyond what Circuit.Deliver already charged.
func attachCircuitRx(c *circuit.Circuit, end *msgChannel) {
	drain := func() {
		for {
			in, ok := c.TryBeginUnpacking()
			if !ok {
				return
			}
			shaped := in.(interface {
				NumSegs() int
				NextSegLen() int
			})
			segs := make([][]byte, shaped.NumSegs())
			for i := range segs {
				segs[i] = in.Unpack(shaped.NextSegLen(), madapi.ReceiveCheaper)
			}
			in.EndUnpacking()
			end.deliver(segs)
		}
	}
	c.SetRxNotify(drain)
	drain() // anything delivered before the notify hook was installed
}

// openVLink provisions a per-session VLink driver stack (the
// distributed paradigm, alternate methods included).
func (m *Manager) openVLink(p *vtime.Proc, src, dst topology.NodeID, cls selector.PathClass, dec selector.Decision, observe bool) (Channel, error) {
	va, vb, err := m.sub.DialVLinkWith(p, src, dst, dec)
	if err != nil {
		return nil, err
	}
	a := &vlinkChannel{v: va, info: Info{Src: src, Dst: dst, Class: cls, Decision: dec}}
	b := &vlinkChannel{v: vb, info: Info{Src: dst, Dst: src, Class: cls, Decision: dec}}
	a.provisioned, b.provisioned = m.enrol(a, observe), m.enrol(b, observe)
	a.remote, b.remote = b, a
	return a, nil
}

// copySegs clones a message's segments; with lend the last one is
// shared with the caller instead.
func copySegs(segs [][]byte, lend bool) [][]byte {
	out := make([][]byte, len(segs))
	n := len(segs)
	if lend {
		n--
		out[n] = segs[n]
	}
	for i, s := range segs[:n] {
		out[i] = append([]byte(nil), s...)
	}
	return out
}
