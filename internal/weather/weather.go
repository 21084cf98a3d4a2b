// Package weather is the grid's network monitoring and forecasting
// service — the Network-Weather-Service role of production grids
// ("Towards Parallel Computing on the Internet", PAPERS.md) rebuilt on
// the simulated testbed. The paper's Selector (§4.2) consults a static
// topology knowledge base; weather gives it eyes: per-pair, per-network
// forecasts of bandwidth, latency, loss and outage, folded from
//
//   - active probes: small RTT pings plus periodic bandwidth
//     micro-transfers over ordinary session channels, pinned to the
//     network under measurement and budgeted (one representative node
//     pair per site pair, a few KB/s) so monitoring never competes
//     with the workloads it serves, and
//   - passive observation: closed session channels report their
//     transfer counters (bytes moved over wall-of-virtual-time), and
//     the ipstack's smoothed TCP RTT estimates are swept for free.
//
// Estimates are EWMA-smoothed with step detection (a sample far from
// the forecast resets it — a degraded link must be believed after one
// probe, not after the average decays). Forecasts are published
// through the Service's registry: selector.Select consults it as an
// Oracle, and subscribers (adaptive sessions, group trees) are
// notified when a pair crosses the degraded threshold or goes down.
//
// Everything is deterministic: probe cadences are fixed virtual-time
// sleeps (staggered per entry, never wall clock), there is no
// randomness, and registry iteration is in entry declaration order —
// the same testbed and schedule yield bit-identical forecasts and
// publications on every run.
package weather

import (
	"fmt"
	"sync/atomic"
	"time"

	"padico/internal/ipstack"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// The monitoring parameters. No caller ever tuned them (every testbed,
// test and example ran on the defaults), so they are constants; each
// keeps the reason for its value.
const (
	// probeInterval is the RTT ping cadence per monitored entry, in
	// virtual time.
	probeInterval = 250 * time.Millisecond
	// bandwidthEvery runs a bandwidth micro-transfer every N-th probe
	// tick instead of a ping.
	bandwidthEvery = 4
	// probeBytes is the micro-transfer size — small enough to stay
	// within the probe budget, large enough to out-grow slow start on
	// the cached probe connection.
	probeBytes = 64 << 10
	// probeTimeout bounds one ping reply; bandwidth probes get four
	// times as long.
	probeTimeout = time.Second
	// downAfter is the consecutive-failure count that declares a link
	// down.
	downAfter = 2
	// activeAlpha is the EWMA gain for active samples; passiveAlpha
	// the (lighter) gain for passive ones.
	activeAlpha  = 0.5
	passiveAlpha = 0.25
	// stepRatio is the relative change beyond which a sample resets
	// the forecast outright instead of being averaged in: condition
	// steps — a link degrading 16x — must be believed after one
	// observation.
	stepRatio = 0.5
	// degradedRatio: a forecast below this fraction of the network's
	// nameplate rate is "degraded"; crossings are published to
	// subscribers.
	degradedRatio = 0.5
	// passiveInterval is the ipstack SRTT sweep cadence.
	passiveInterval = time.Second
	// minObserveBytes is the smallest closed-channel transfer folded
	// into the passive bandwidth estimate — tiny control exchanges
	// measure protocol latency, not bandwidth.
	minObserveBytes = 256 << 10
)

// Stats counts monitoring activity. Counters are bumped with atomic
// adds and read race-free through Service.Stats; with telemetry
// attached they also surface in the shared registry under the
// "weather." prefix.
type Stats struct {
	Pings, ProbeFailures int64
	BandwidthProbes      int64
	PassiveBandwidth     int64 // closed-channel transfers folded in
	PassiveRTT           int64 // ipstack SRTT sweeps folded in
	Publishes            int64 // threshold crossings notified
}

// entry is one monitored (site pair, network): the representative node
// pair, the forecast, and the probe channel state.
type entry struct {
	key    string
	s1, s2 string          // the site pair, sorted
	a, b   topology.NodeID // representative pair, a < b
	nw     *topology.Network

	f       selector.Forecast
	haveBW  bool
	haveLat bool
	baseLat time.Duration // minimum one-way latency observed (base RTT/2)

	failures int
	degraded bool // last published degraded state

	ch      session.Channel
	replies *vtime.Queue[probeReply]
	seq     uint64
	warmup  int // bandwidth samples to discard on a fresh connection
}

// Service is the per-grid weather monitor. It implements
// selector.Oracle and session.Weather.
type Service struct {
	k     *vtime.Kernel
	topo  *topology.Grid
	mgr   *session.Manager
	stack *ipstack.Stack // passive SRTT tap (may be nil)

	entries []*entry
	byKey   map[string]*entry
	subs    []*subscription
	// publishing guards subs against in-place compaction while a
	// publication is iterating it.
	publishing bool
	started    bool

	stats  Stats
	tel    *telemetry.Hub
	hProbe *telemetry.Histogram
}

// Stats returns a consistent copy of the service's counters.
func (s *Service) Stats() Stats { return telemetry.Load(&s.stats) }

// New builds a weather service over a testbed's session manager. The
// stack, when non-nil, is swept for passive TCP RTT estimates. Call
// Start to begin monitoring.
func New(k *vtime.Kernel, topo *topology.Grid, mgr *session.Manager, stack *ipstack.Stack) *Service {
	s := &Service{
		k: k, topo: topo, mgr: mgr, stack: stack,
		byKey: make(map[string]*entry),
	}
	if h := telemetry.For(k); h != nil {
		s.tel = h
		h.Registry().BindStruct("weather", &s.stats)
		s.hProbe = h.Registry().Histogram("weather.probe_rtt")
	}
	s.discover()
	return s
}

// siteKey canonicalizes a site pair.
func siteKey(s1, s2 string) (string, string) {
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	return s1, s2
}

// entryKey is the registry key of one (site pair, network).
func entryKey(s1, s2, nw string) string {
	s1, s2 = siteKey(s1, s2)
	return s1 + "|" + s2 + "|" + nw
}

// monitorable reports whether a network's conditions are worth active
// probing: the wide area is what changes underneath a grid. Machine
// rooms (SANs, the site LAN) are static in this testbed family, and
// probing them would only burn budget.
func monitorable(k topology.NetworkKind) bool {
	return k == topology.WAN || k == topology.Internet
}

// discover enumerates monitored entries: for every site pair, the
// lowest-id node of each site is the representative, and every
// monitorable network the pair shares gets one entry. Iteration orders
// are sorted or declaration order throughout — the registry layout is
// deterministic.
func (s *Service) discover() {
	siteRep := make(map[string]topology.NodeID)
	var sites []string
	for _, n := range s.topo.Nodes() { // id order: first node of a site is its rep
		if _, ok := siteRep[n.Site]; !ok {
			siteRep[n.Site] = n.ID
			sites = append(sites, n.Site)
		}
	}
	for i := 0; i < len(sites); i++ {
		for j := i + 1; j < len(sites); j++ {
			a, b := siteRep[sites[i]], siteRep[sites[j]]
			if a > b {
				a, b = b, a
			}
			for _, nw := range s.topo.Common(a, b) {
				if !monitorable(nw.Kind) {
					continue
				}
				k1, k2 := siteKey(sites[i], sites[j])
				e := &entry{
					key: entryKey(sites[i], sites[j], nw.Name),
					s1:  k1, s2: k2,
					a: a, b: b, nw: nw,
				}
				s.entries = append(s.entries, e)
				s.byKey[e.key] = e
			}
		}
	}
}

// Entries reports how many (site pair, network) combinations are
// monitored.
func (s *Service) Entries() int { return len(s.entries) }

// Start spawns the probe and sweep daemons. Idempotent.
func (s *Service) Start() {
	if s.started {
		return
	}
	s.started = true
	for i, e := range s.entries {
		e := e
		// Stagger the probers so entries do not fire in lockstep on
		// shared access links (deterministic: fixed per-index offset).
		offset := time.Duration(i) * 7 * time.Millisecond
		s.k.GoDaemon(fmt.Sprintf("weather:probe:%s", e.key), func(p *vtime.Proc) {
			p.Sleep(offset)
			s.probeLoop(p, e)
		})
	}
	if s.stack != nil {
		s.k.GoDaemon("weather:passive-rtt", s.sweepRTT)
	}
}

// sweepRTT periodically folds the ipstack's smoothed TCP RTT estimates
// for the monitored pairs — passive latency observations riding on
// whatever traffic already flows.
func (s *Service) sweepRTT(p *vtime.Proc) {
	for {
		p.Sleep(passiveInterval)
		for _, e := range s.entries {
			srtt, ok := s.stack.SRTT(e.a, e.b)
			if !ok {
				srtt, ok = s.stack.SRTT(e.b, e.a)
			}
			if !ok || srtt <= 0 {
				continue
			}
			s.foldLatency(e, srtt/2, passiveAlpha)
			atomic.AddInt64(&s.stats.PassiveRTT, 1)
		}
	}
}

// ---------------------------------------------------------------------
// Folding and publication.

// ewma folds a sample into a forecast figure with step detection.
func (s *Service) ewma(prev, sample, alpha float64, have bool) float64 {
	if !have || prev <= 0 {
		return sample
	}
	delta := sample - prev
	if delta < 0 {
		delta = -delta
	}
	if delta > prev*stepRatio {
		return sample // condition step: believe it now
	}
	return alpha*sample + (1-alpha)*prev
}

func (s *Service) foldBandwidth(e *entry, bps float64, alpha float64) {
	e.f.BandwidthBps = s.ewma(e.f.BandwidthBps, bps, alpha, e.haveBW)
	e.haveBW = true
	s.maybePublish(e)
}

// foldBandwidthLower folds a lower-bound sample (a lifetime average
// that may include idle time): it may raise the forecast freely —
// observed throughput proves capacity — but lowers it only by the
// gentle passive gain, never by a step reset. One mostly-idle
// long-lived channel closing must not flash a healthy link degraded.
func (s *Service) foldBandwidthLower(e *entry, bps float64) {
	if !e.haveBW || bps >= e.f.BandwidthBps {
		s.foldBandwidth(e, bps, passiveAlpha)
		return
	}
	a := passiveAlpha
	e.f.BandwidthBps = a*bps + (1-a)*e.f.BandwidthBps
	s.maybePublish(e)
}

func (s *Service) foldLatency(e *entry, lat time.Duration, alpha float64) {
	e.f.Latency = time.Duration(s.ewma(float64(e.f.Latency), float64(lat), alpha, e.haveLat))
	if !e.haveLat || lat < e.baseLat {
		e.baseLat = lat // propagation floor: congestion only inflates
	}
	e.haveLat = true
}

// foldLoss tracks the ping failure fraction as a crude loss figure.
func (s *Service) foldLoss(e *entry, lost bool) {
	sample := 0.0
	if lost {
		sample = 1.0
	}
	e.f.Loss = activeAlpha*sample + (1-activeAlpha)*e.f.Loss
}

// maybePublish notifies subscribers when the entry crossed the
// degraded threshold (either direction) or its outage state flipped.
// The up-to-date forecast itself is always visible through Forecast.
func (s *Service) maybePublish(e *entry) {
	degraded := e.f.Down || (e.haveBW && e.f.BandwidthBps < degradedRatio*e.nw.RateBps)
	if degraded == e.degraded {
		return
	}
	e.degraded = degraded
	atomic.AddInt64(&s.stats.Publishes, 1)
	s.tel.Note("weather", "publish: degraded state flipped", int(e.a), int64(e.b), boolInt(degraded))
	if s.tel.Tracing() {
		s.tel.Instant("weather", "publish", int(e.a)).
			I64("peer", int64(e.b)).Str("net", e.nw.Name).I64("degraded", boolInt(degraded)).End()
	}
	// Index loop, publication guard: a callback may cancel its own (or
	// another) subscription, or add one — compaction is deferred until
	// the loop is done so the list never shifts under the iteration.
	s.publishing = true
	for i := 0; i < len(s.subs); i++ {
		if fn := s.subs[i].fn; fn != nil {
			fn(e.a, e.b, e.nw, e.f)
		}
	}
	s.publishing = false
	s.compactSubs()
}

// setDown flips the outage state and publishes the transition.
func (s *Service) setDown(e *entry, down bool) {
	if e.f.Down == down {
		return
	}
	e.f.Down = down
	if down {
		e.degraded = false // force a crossing publication
	}
	s.maybePublish(e)
}

// ---------------------------------------------------------------------
// The Oracle / session.Weather interface.

// Forecast implements selector.Oracle: the forecast for a node pair on
// one network is the site-pair entry's (grid weather is a wide-area
// phenomenon; intra-site fabrics are not monitored).
func (s *Service) Forecast(a, b topology.NodeID, nw *topology.Network) (selector.Forecast, bool) {
	e, ok := s.lookup(a, b, nw.Name)
	if !ok || (!e.haveBW && !e.f.Down) {
		return selector.Forecast{}, false
	}
	return e.f, true
}

// PairBandwidth returns the best forecast bandwidth across the pair's
// monitored networks (0 for a fully down pair), and whether any
// forecast exists. Consumers rank alternative peers with it.
func (s *Service) PairBandwidth(a, b topology.NodeID) (float64, bool) {
	sa, sb := siteKey(s.topo.Node(a).Site, s.topo.Node(b).Site)
	if sa == sb {
		return 0, false
	}
	best, any := 0.0, false
	for _, e := range s.entries {
		if e.s1 != sa || e.s2 != sb || (!e.haveBW && !e.f.Down) {
			continue
		}
		any = true
		if !e.f.Down && e.f.BandwidthBps > best {
			best = e.f.BandwidthBps
		}
	}
	return best, any
}

func (s *Service) lookup(a, b topology.NodeID, nwName string) (*entry, bool) {
	sa, sb := s.topo.Node(a).Site, s.topo.Node(b).Site
	if sa == sb {
		return nil, false
	}
	e, ok := s.byKey[entryKey(sa, sb, nwName)]
	return e, ok
}

// ObserveTransfer implements session.Weather: transfer counters
// become a passive bandwidth sample for the pair and network, only
// when the transfer was big enough to measure bandwidth rather than
// protocol latency. Live (saturated-window) samples fold like probe
// measurements, step detection included; lifetime averages are lower
// bounds and may only lower the forecast gently.
func (s *Service) ObserveTransfer(src, dst topology.NodeID, network string, bytesOut int64, elapsed vtime.Duration, live bool) {
	if bytesOut < minObserveBytes || elapsed <= 0 {
		return
	}
	e, ok := s.lookup(src, dst, network)
	if !ok {
		return
	}
	bps := float64(bytesOut) / elapsed.Seconds()
	if live {
		s.foldBandwidth(e, bps, passiveAlpha)
	} else {
		s.foldBandwidthLower(e, bps)
	}
	atomic.AddInt64(&s.stats.PassiveBandwidth, 1)
}

// subscription is one registered transition callback; cancelled ones
// are nilled in place (publication order is positional) and compacted
// once they dominate the list.
type subscription struct {
	fn func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast)
}

// Subscribe implements session.Weather: fn runs (in kernel or prober
// context) on every published transition, in subscription order. The
// returned cancel removes it; short-lived subscribers (one adaptive
// channel per transfer) must cancel or the list grows without bound.
func (s *Service) Subscribe(fn func(a, b topology.NodeID, nw *topology.Network, f selector.Forecast)) func() {
	sub := &subscription{fn: fn}
	s.subs = append(s.subs, sub)
	return func() {
		sub.fn = nil
		s.compactSubs()
	}
}

// compactSubs drops cancelled subscriptions once they outnumber the
// live ones (order of the survivors is preserved). Deferred while a
// publication is iterating the list.
func (s *Service) compactSubs() {
	if s.publishing {
		return
	}
	dead := 0
	for _, sub := range s.subs {
		if sub.fn == nil {
			dead++
		}
	}
	if dead <= len(s.subs)/2 || len(s.subs) < 16 {
		return
	}
	live := s.subs[:0]
	for _, sub := range s.subs {
		if sub.fn != nil {
			live = append(live, sub)
		}
	}
	for i := len(live); i < len(s.subs); i++ {
		s.subs[i] = nil
	}
	s.subs = live
}

// String renders the registry (for padico-info style reporting).
func (s *Service) String() string {
	out := ""
	for _, e := range s.entries {
		state := "?"
		if e.f.Down {
			state = "DOWN"
		} else if e.haveBW {
			state = fmt.Sprintf("%.2f MB/s", e.f.BandwidthBps/1e6)
		}
		out += fmt.Sprintf("%-40s lat=%-10v loss=%.2f %s\n", e.key, e.f.Latency, e.f.Loss, state)
	}
	return out
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
