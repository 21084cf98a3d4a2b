// Package netsim simulates the grid's networking hardware on the vtime
// kernel: a Myrinet-like crossbar SAN, a switched Ethernet LAN, and
// multi-hop WAN paths with configurable rate, latency, loss and queues.
// Data really moves (packets carry payload bytes end to end); timing is
// virtual: each link serializes packets at its configured rate and adds
// its latency, so bandwidth and latency emerge from the same mechanics
// as on real hardware.
//
// netsim sits below the drivers (internal/drivers/*) which expose
// vendor-style APIs, and below internal/ipstack which implements UDP and
// a Reno TCP over these fabrics.
//
// All randomness (loss draws) comes from a per-fabric *rand.Rand seeded
// at construction — never the global math/rand source — so a simulation
// is bit-for-bit reproducible: the same seeds yield the same drops at
// the same virtual instants on every run.
//
// Fabric conditions are time-varying: Hop and SwitchedLAN parameters
// can change mid-simulation through their setters (or the Schedule*
// helpers, which arm the change as a kernel event at a fixed virtual
// instant), and a Hop can be taken down and restored outright. A
// schedule is part of the testbed description — the same schedule on
// the same seeds yields the same packet trace, so dynamic fabrics stay
// exactly as deterministic as static ones.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Packet is a unit of transmission on a fabric. Payload is real data;
// Wire is the byte count that occupies the link (payload + headers), so
// protocol overhead costs wire time even though header bytes are
// represented structurally rather than serialized.
type Packet struct {
	Src, Dst int // fabric addresses
	Payload  []byte
	Wire     int // bytes on the wire; >= len(Payload)
	Meta     any // driver/protocol data (seq numbers, flags, ...)
	// Drop, when set, is invoked (in kernel context) if a fabric drops
	// the packet — loss draw or queue overflow — instead of delivering
	// it. Protocols that attach pooled or refcounted resources to a
	// packet use it to release them; exactly one of delivery or Drop
	// happens per send.
	Drop func()
}

// dropped invokes the drop hook, if any.
func (pkt *Packet) dropped() {
	if pkt.Drop != nil {
		pkt.Drop()
	}
}

// delivery is one packet on its way to its receiver's DeliverFunc.
type delivery struct {
	deliver DeliverFunc
	pkt     *Packet
	tx      time.Duration // a LAN frame's serialization time, for its egress
}

func deliverPkt(d delivery) { d.deliver(d.pkt) }

// port is one end of a serializing link: the time it is free again and
// the lane its packets leave on, in the order they finish.
type port struct {
	free vtime.Time
	lane vtime.Lane[delivery]
}

// ports are one side's link ends of a fabric by address, each made on
// first use with its lane feeding sink.
type ports struct {
	k    *vtime.Kernel
	sink func(delivery)
	m    map[int]*port
}

func (ps ports) of(addr int) *port {
	pt := ps.m[addr]
	if pt == nil {
		pt = &port{}
		pt.lane.Init(ps.k, ps.sink)
		ps.m[addr] = pt
	}
	return pt
}

// DeliverFunc receives a packet in kernel (event handler) context. It
// must not block; typical implementations push to a vtime.Queue and
// signal a poller.
type DeliverFunc func(pkt *Packet)

// Fabric is a simulated interconnect to which endpoints attach by
// address.
type Fabric interface {
	// Attach registers the delivery callback for an address.
	Attach(addr int, deliver DeliverFunc)
	// Send schedules pkt for delivery to pkt.Dst. It never blocks; flow
	// control, if any, is the caller's business.
	Send(pkt *Packet)
	// Kind reports the technology simulated by this fabric.
	Kind() topology.NetworkKind
}

// ---------------------------------------------------------------------
// Crossbar: a full-bisection SAN switch (Myrinet, SCI, VIA hardware).
// Each source port serializes its own traffic (rate + per-packet
// overhead); the switch adds a fixed latency. No loss, no contention on
// distinct destination ports (ideal crossbar).

// Crossbar simulates a SAN switch.
type Crossbar struct {
	k        *vtime.Kernel
	kind     topology.NetworkKind
	rate     float64 // bytes/s per port
	pktOverh time.Duration
	wireLat  time.Duration
	ports    map[int]DeliverFunc
	tx       ports // per source

	// Stats
	Packets int64
	Bytes   int64
}

// NewCrossbar builds a SAN fabric with the given per-port rate,
// per-packet overhead and switch latency.
func NewCrossbar(k *vtime.Kernel, kind topology.NetworkKind, rate float64,
	pktOverhead, wireLat time.Duration) *Crossbar {
	return &Crossbar{
		k: k, kind: kind, rate: rate, pktOverh: pktOverhead, wireLat: wireLat,
		ports: make(map[int]DeliverFunc), tx: ports{k, deliverPkt, map[int]*port{}},
	}
}

// Kind implements Fabric.
func (c *Crossbar) Kind() topology.NetworkKind { return c.kind }

// Attach implements Fabric.
func (c *Crossbar) Attach(addr int, deliver DeliverFunc) {
	if _, dup := c.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: crossbar address %d attached twice", addr))
	}
	c.ports[addr] = deliver
}

// Send implements Fabric: the packet occupies the source port for
// wire/rate + overhead, then arrives after the switch latency.
func (c *Crossbar) Send(pkt *Packet) {
	deliver, ok := c.ports[pkt.Dst]
	if !ok {
		panic(fmt.Sprintf("netsim: crossbar send to unattached address %d", pkt.Dst))
	}
	src := c.tx.of(pkt.Src)
	txTime := time.Duration(float64(pkt.Wire)/c.rate*1e9) + c.pktOverh
	src.free = max(src.free, c.k.Now()).Add(txTime)
	c.Packets++
	c.Bytes += int64(pkt.Wire)
	src.lane.Push(src.free.Add(c.wireLat), delivery{deliver: deliver, pkt: pkt})
}

// ---------------------------------------------------------------------
// SwitchedLAN: store-and-forward Ethernet switch. Ingress and egress
// ports serialize independently at the port rate; frame overhead is
// added per packet; optional uniform random loss (deterministic RNG).

// SwitchedLAN simulates a switched Ethernet segment.
type SwitchedLAN struct {
	k       *vtime.Kernel
	rate    float64
	frameOH int
	wireLat time.Duration
	loss    float64
	rng     *rand.Rand
	ports   map[int]DeliverFunc
	in, out ports // ingress per source, egress per destination

	Packets int64
	Drops   int64
	Bytes   int64
}

// NewSwitchedLAN builds an Ethernet-like fabric.
func NewSwitchedLAN(k *vtime.Kernel, rate float64, frameOverhead int,
	wireLat time.Duration, loss float64, seed int64) *SwitchedLAN {
	s := &SwitchedLAN{
		k: k, rate: rate, frameOH: frameOverhead, wireLat: wireLat, loss: loss,
		rng:   rand.New(rand.NewSource(seed)),
		ports: make(map[int]DeliverFunc), out: ports{k, deliverPkt, map[int]*port{}},
	}
	s.in = ports{k, s.egress, map[int]*port{}}
	return s
}

// Kind implements Fabric.
func (s *SwitchedLAN) Kind() topology.NetworkKind { return topology.Ethernet }

// SetRate changes the per-port rate for packets sent from now on.
func (s *SwitchedLAN) SetRate(rate float64) { s.rate = rate }

// SetLoss changes the uniform loss probability for packets sent from
// now on (the RNG stream is unchanged: draws happen per packet).
func (s *SwitchedLAN) SetLoss(loss float64) { s.loss = loss }

// Attach implements Fabric.
func (s *SwitchedLAN) Attach(addr int, deliver DeliverFunc) {
	if _, dup := s.ports[addr]; dup {
		panic(fmt.Sprintf("netsim: LAN address %d attached twice", addr))
	}
	s.ports[addr] = deliver
}

// Send implements Fabric.
func (s *SwitchedLAN) Send(pkt *Packet) {
	deliver, ok := s.ports[pkt.Dst]
	if !ok {
		panic(fmt.Sprintf("netsim: LAN send to unattached address %d", pkt.Dst))
	}
	frame := pkt.Wire + s.frameOH
	txTime := time.Duration(float64(frame) / s.rate * 1e9)

	// Ingress link (host -> switch).
	in := s.in.of(pkt.Src)
	in.free = max(in.free, s.k.Now()).Add(txTime)

	s.Packets++
	s.Bytes += int64(frame)
	if s.loss > 0 && s.rng.Float64() < s.loss {
		s.Drops++
		pkt.dropped()
		return // consumed ingress wire time, then vanished
	}

	// Egress link (switch -> host): store-and-forward, so egress starts
	// after full ingress reception.
	in.lane.Push(in.free, delivery{deliver: deliver, pkt: pkt, tx: txTime})
}

// egress serializes a fully received frame onto its destination's link.
func (s *SwitchedLAN) egress(d delivery) {
	out := s.out.of(d.pkt.Dst)
	out.free = max(out.free, s.k.Now()).Add(d.tx)
	out.lane.Push(out.free.Add(s.wireLat), d)
}

// ---------------------------------------------------------------------
// Hop and Path: WAN modelling. A Path is a unidirectional chain of hops,
// each with its own rate, latency, loss and a bounded FIFO queue
// (tail-drop). Bidirectional WAN connectivity uses two Paths.

// Hop is one store-and-forward stage of a Path. Rate, Latency and Loss
// are read at send time, so they may change mid-simulation, through the
// setters or the Schedule* helpers.
type Hop struct {
	Name     string
	Rate     float64 // bytes/s
	Latency  time.Duration
	Loss     float64 // random loss probability
	QueueCap int     // max packets queued waiting for the link (0 = 64)

	free vtime.Time
	down bool
	// drain holds the wire size of each packet waiting for the link, due
	// when it finishes serializing (free is monotonic, so they finish in
	// the order they were queued); arrive holds the packets in latency
	// flight.
	drain  vtime.Lane[int]
	arrive vtime.Lane[arrival]
	qbytes int64 // sum of drain's wire sizes
	lanes  bool  // drain and arrive are built: by the first Path through the hop

	registered bool // hop metrics bound into a registry (once)

	Packets int64
	Drops   int64
	Bytes   int64 // wire bytes that serialized onto this link
	BusyNs  int64 // cumulative serialization time: utilization numerator
}

// RegisterHopMetrics binds a hop's utilization and backpressure
// instruments into reg under "netsim.hop.<name>": busy_ns (cumulative
// serialization time — the sampler renders its rate as a busy-fraction
// gauge), queued_bytes and queued_pkts (queue depth gauges), and
// drops. Idempotent per hop; unnamed hops and nil registries are
// skipped. Call sites that build hops before attaching telemetry
// (grid.Telemetry) invoke this at attach time.
func RegisterHopMetrics(reg *telemetry.Registry, h *Hop) {
	if reg == nil || h == nil || h.Name == "" || h.registered {
		return
	}
	h.registered = true
	prefix := "netsim.hop." + h.Name
	reg.CounterFunc(prefix+".busy_ns", func() int64 { return h.BusyNs })
	reg.CounterFunc(prefix+".drops", func() int64 { return h.Drops })
	reg.GaugeFunc(prefix+".queued_bytes", func() int64 { return h.qbytes })
	reg.GaugeFunc(prefix+".queued_pkts", func() int64 { return int64(h.drain.Len()) })
}

// SetRate changes the hop's rate. Packets already serialized (in
// latency flight) are unaffected; packets sent after a change see the
// new rate, loss and outage state.
func (h *Hop) SetRate(rate float64) { h.Rate = rate }

// SetLoss changes the hop's loss probability.
func (h *Hop) SetLoss(loss float64) { h.Loss = loss }

// SetDown takes the link down (every packet dropped) or restores it.
func (h *Hop) SetDown(down bool) { h.down = down }

// Down reports whether the hop is in outage.
func (h *Hop) Down() bool { return h.down }

// noteChange records a scheduled fabric change on the flight recorder
// and (when tracing) the trace, so dynamic WAN conditions line up with
// the transfer spans they perturb.
func noteChange(k *vtime.Kernel, h *Hop, what string) {
	tel := telemetry.For(k)
	if tel == nil {
		return
	}
	tel.Note("netsim", "hop condition change", 0, int64(h.Rate), int64(h.Latency))
	if tel.Tracing() {
		tel.Instant("netsim", "hop."+what, 0).Str("hop", h.Name).
			I64("rate_bps", int64(h.Rate)).I64("lat_ns", int64(h.Latency)).End()
	}
}

// ScheduleRate arms a rate change at virtual time at.
func ScheduleRate(k *vtime.Kernel, at vtime.Time, h *Hop, rate float64) {
	k.At(at, func() { h.SetRate(rate); noteChange(k, h, "rate") })
}

// ScheduleLoss arms a loss change at virtual time at.
func ScheduleLoss(k *vtime.Kernel, at vtime.Time, h *Hop, loss float64) {
	k.At(at, func() { h.SetLoss(loss); noteChange(k, h, "loss") })
}

// ScheduleOutage arms an outage at `at` and, if restore > at, the
// matching restore.
func ScheduleOutage(k *vtime.Kernel, at, restore vtime.Time, h *Hop) {
	k.At(at, func() { h.SetDown(true); noteChange(k, h, "outage") })
	if restore > at {
		k.At(restore, func() { h.SetDown(false); noteChange(k, h, "restore") })
	}
}

// Path is a unidirectional multi-hop route between two fabrics'
// endpoints — used by ipstack for inter-site traffic.
type Path struct {
	k    *vtime.Kernel
	name string
	hops []*Hop
	rng  *rand.Rand
	dst  DeliverFunc
}

// arrival is a packet reaching the end of a hop: it goes on to hop i of
// path p.
type arrival struct {
	p   *Path
	i   int
	pkt *Packet
}

// NewPath builds a path delivering to dst through the given hops.
func NewPath(k *vtime.Kernel, name string, seed int64, hops ...*Hop) *Path {
	for _, h := range hops {
		if h.lanes {
			continue // shared with a path built earlier
		}
		h.lanes = true
		if h.QueueCap == 0 {
			h.QueueCap = 64
		}
		h.drain.Init(k, func(wire int) { h.qbytes -= int64(wire) })
		h.arrive.Init(k, func(a arrival) { a.p.sendHop(a.i, a.pkt) })
	}
	return &Path{k: k, name: name, hops: hops, rng: rand.New(rand.NewSource(seed))}
}

// SetDeliver installs the terminal delivery callback.
func (p *Path) SetDeliver(d DeliverFunc) { p.dst = d }

// Name returns the path's name.
func (p *Path) Name() string { return p.name }

// Send pushes a packet through every hop in order.
func (p *Path) Send(pkt *Packet) { p.sendHop(0, pkt) }

func (p *Path) sendHop(i int, pkt *Packet) {
	if i == len(p.hops) {
		if p.dst == nil {
			panic("netsim: path " + p.name + " has no delivery callback")
		}
		p.dst(pkt)
		return
	}
	h := p.hops[i]
	h.Packets++
	if h.down {
		h.Drops++
		pkt.dropped()
		return
	}
	if h.Loss > 0 && p.rng.Float64() < h.Loss {
		h.Drops++
		pkt.dropped()
		return
	}
	// Tail-drop if too many packets are already waiting for this link.
	if h.drain.Len() >= h.QueueCap {
		h.Drops++
		pkt.dropped()
		return
	}
	txTime := time.Duration(float64(pkt.Wire) / h.Rate * 1e9)
	h.free = max(h.free, p.k.Now()).Add(txTime)
	h.Bytes += int64(pkt.Wire)
	h.BusyNs += int64(txTime)
	// The queue drains when the packet finishes serializing; packets in
	// propagation (latency) flight do not occupy buffer space.
	h.qbytes += int64(pkt.Wire)
	h.drain.Push(h.free, pkt.Wire)
	h.arrive.Push(h.free.Add(h.Latency), arrival{p, i + 1, pkt})
}

// Drops sums drops over all hops (loss + queue overflow).
func (p *Path) Drops() int64 {
	var d int64
	for _, h := range p.hops {
		d += h.Drops
	}
	return d
}
