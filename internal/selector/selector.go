// Package selector implements the paper's Selector (§4.2): "VLink and
// Circuit automatically choose which protocol to use according to a
// knowledge base of the network topology managed by PadicoTM and
// user-defined preferences."
//
// The primary entry point is Select: given a Request — a node pair plus
// the per-channel QoS the caller wants — and the grid description, it
// returns a Decision: which shared network to use, which method
// (driver/adapter) on it, and which optional protocol adapters
// (compression, security, parallel streams, loss tolerance) to stack —
// compromises only where required (§3.1), e.g. ciphering only on
// insecure links ("if the network is secure, it is useless to cipher
// data", §2.1). QoS is per-request: two channels between the same pair
// may legitimately demand different trade-offs (a latency-sensitive
// control channel next to a striped bulk channel). A deployment-wide
// QoS is just the default the session layer applies when a caller does
// not override it.
package selector

import (
	"fmt"
	"time"

	"padico/internal/topology"
)

// ---------------------------------------------------------------------
// Network weather. The knowledge base of the paper's Selector is a
// *static* topology description; a weather oracle layers *measured*
// conditions on top (NWS-style monitoring: internal/weather). Select
// stays a pure function — the oracle is part of the request, and a nil
// oracle reproduces the static behaviour bit for bit.

// Forecast is the measured/predicted condition of one network between
// two nodes, as published by a weather service.
type Forecast struct {
	// BandwidthBps is the forecast achievable bandwidth (bytes/s).
	BandwidthBps float64
	// Latency is the forecast one-way latency.
	Latency time.Duration
	// Loss is the forecast packet-loss fraction.
	Loss float64
	// Down marks a link in outage (probes failing outright).
	Down bool
}

// Oracle supplies forecasts per (pair, network). Implementations must
// be deterministic reads (no virtual-time side effects): Select calls
// them inline.
type Oracle interface {
	Forecast(a, b topology.NodeID, nw *topology.Network) (Forecast, bool)
}

// DefaultHysteresis is the factor by which an alternative network's
// forecast bandwidth must beat the incumbent's before Select abandons
// the incumbent. Below it, a flapping link would thrash channels
// between networks.
const DefaultHysteresis = 1.5

// CipherPolicy selects when links are wrapped with authentication and
// encryption. The zero value is CipherNever; policies outside the
// declared range are rejected by Select (no silent fallthrough).
type CipherPolicy int

const (
	// CipherNever disables the security wrapper everywhere.
	CipherNever CipherPolicy = iota
	// CipherAuto ciphers insecure networks only (the paper's default:
	// machine-room SANs are physically secure, the wide area is not).
	CipherAuto
	// CipherAlways ciphers every link, secure or not.
	CipherAlways
)

var cipherNames = [...]string{"never", "auto", "always"}

func (c CipherPolicy) String() string {
	if c.Valid() {
		return cipherNames[c]
	}
	return fmt.Sprintf("CipherPolicy(%d)", int(c))
}

// Valid reports whether c is one of the declared policies.
func (c CipherPolicy) Valid() bool { return c >= CipherNever && c <= CipherAlways }

// ParseCipherPolicy converts the configuration-file spelling of a
// policy ("never", "auto", "always") to the typed value.
func ParseCipherPolicy(s string) (CipherPolicy, error) {
	for i, n := range cipherNames {
		if n == s {
			return CipherPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("selector: unknown cipher policy %q", s)
}

// QoS is the per-channel quality-of-service request consulted by the
// knowledge base.
type QoS struct {
	// Streams is the number of parallel sockets per logical link on
	// high-bandwidth high-latency WANs (0 or 1 disables striping).
	Streams int
	// Compress enables AdOC adaptive compression on links slower than
	// CompressBelowBps.
	Compress         bool
	CompressBelowBps float64
	// LossTolerance enables VRP with the given tolerated loss fraction
	// (0 disables; only applies to lossy links).
	LossTolerance float64
	// Cipher selects when to wrap links with authentication/encryption.
	Cipher CipherPolicy
	// LatencySensitive marks channels that refuse adapters trading
	// latency for bandwidth: no stripe reordering, no compression CPU
	// in the critical path.
	LatencySensitive bool
	// Collective marks channels that form edges of a group-communication
	// spanning tree (hierarchical multicast/reduce). Payload crossing
	// such an edge is forwarded verbatim to the next tier, so per-hop
	// compression is pure wasted CPU: the selector never stacks AdOC on
	// a collective edge. Striping and ciphering still apply per link.
	Collective bool
}

// Validate rejects malformed QoS values; Select calls it so an invalid
// request fails loudly instead of silently selecting a weaker stack.
func (q QoS) Validate() error {
	if !q.Cipher.Valid() {
		return fmt.Errorf("selector: invalid cipher policy %d", int(q.Cipher))
	}
	if q.Streams < 0 {
		return fmt.Errorf("selector: negative stream count %d", q.Streams)
	}
	if q.LossTolerance < 0 || q.LossTolerance > 1 {
		return fmt.Errorf("selector: loss tolerance %g outside [0,1]", q.LossTolerance)
	}
	if q.CompressBelowBps < 0 {
		return fmt.Errorf("selector: negative compression threshold %g", q.CompressBelowBps)
	}
	return nil
}

// DefaultQoS mirrors the paper's deployment choices.
func DefaultQoS() QoS {
	return QoS{
		Streams:          4,
		Compress:         true,
		CompressBelowBps: 1e6,
		LossTolerance:    0,
		Cipher:           CipherAuto,
	}
}

// Request is one selection query: a node pair and the QoS the channel
// between them must honour, optionally under measured network weather.
type Request struct {
	Src, Dst topology.NodeID
	QoS      QoS
	// Oracle, when non-nil, overlays measured conditions on the static
	// topology: candidate networks are compared by forecast bandwidth,
	// down links are avoided, and the compression / loss-tolerance
	// wrappers are decided from forecast figures instead of nameplate
	// ones. A nil Oracle (or an oracle with no forecast for the pair)
	// reproduces the static classification exactly.
	Oracle Oracle
	// Current is the incumbent decision when re-evaluating a live
	// channel: Select abandons it only for an alternative whose
	// forecast bandwidth is at least DefaultHysteresis times better (or when
	// the incumbent is down), so flapping links do not thrash.
	Current *Decision
}

// Decision is the selector's verdict for one node pair.
type Decision struct {
	Network *topology.Network
	// Method is the VLink driver / Circuit adapter on that network:
	// "madio" (SAN), "sysio" (TCP), "pstreams", "vrp", "loopback".
	Method string
	// Streams > 1 requests parallel-stream striping (Method pstreams).
	Streams int
	// Compress requests the AdOC wrapper.
	Compress bool
	// Secure requests the authentication/encryption wrapper.
	Secure bool
}

func (d Decision) String() string {
	s := fmt.Sprintf("%s via %s", d.Network.Name, d.Method)
	if d.Streams > 1 {
		s += fmt.Sprintf(" x%d", d.Streams)
	}
	if d.Compress {
		s += "+adoc"
	}
	if d.Secure {
		s += "+gsec"
	}
	return s
}

// sanOrder ranks SAN technologies by preference.
var sanOrder = []topology.NetworkKind{topology.Myrinet, topology.SCI, topology.VIANet}

// PathClass is the coarse classification of the best path between two
// nodes. Consumers that pick a communication paradigm rather than a
// concrete driver (the session layer's substrate choice) branch on it:
// parallel transfers (Circuit/Madeleine) within a SAN, striped
// distributed transfers (VLink/pstreams) across the WAN.
type PathClass int

const (
	// PathLocal: both endpoints are the same node.
	PathLocal PathClass = iota
	// PathSAN: the pair shares a parallel-oriented SAN (same cluster).
	PathSAN
	// PathLAN: the pair shares an Ethernet segment (same site).
	PathLAN
	// PathWAN: the pair is joined by a high-bandwidth high-latency WAN.
	PathWAN
	// PathLossy: only a lossy Internet link joins the pair.
	PathLossy
)

var classNames = map[PathClass]string{
	PathLocal: "local", PathSAN: "san", PathLAN: "lan",
	PathWAN: "wan", PathLossy: "lossy",
}

func (c PathClass) String() string { return classNames[c] }

// Classify reports which class of path connects a and b, following the
// same preference order as Select (SAN over LAN over WAN over lossy
// Internet). It errors when the pair shares no network.
func Classify(g *topology.Grid, a, b topology.NodeID) (PathClass, error) {
	if a == b {
		return PathLocal, nil
	}
	common := g.Common(a, b)
	if len(common) == 0 {
		return 0, fmt.Errorf("selector: no common network between %d and %d", a, b)
	}
	best := PathLossy + 1
	for _, nw := range common {
		var c PathClass
		switch {
		case nw.Kind.Parallel():
			c = PathSAN
		case nw.Kind == topology.Ethernet:
			c = PathLAN
		case nw.Kind == topology.WAN:
			c = PathWAN
		case nw.Kind == topology.Internet:
			c = PathLossy
		default:
			continue
		}
		if c < best {
			best = c
		}
	}
	if best > PathLossy {
		return 0, fmt.Errorf("selector: no classifiable network between %d and %d", a, b)
	}
	return best, nil
}

// Select picks the network, method and wrappers for one request. The
// request's QoS is validated first: an out-of-range CipherPolicy or
// malformed knob is an error, never a silent fallthrough.
func Select(g *topology.Grid, req Request) (Decision, error) {
	if err := req.QoS.Validate(); err != nil {
		return Decision{}, err
	}
	qos := req.QoS
	a, b := req.Src, req.Dst
	if a == b {
		return Decision{Method: "loopback"}, nil
	}
	common := g.Common(a, b)
	if len(common) == 0 {
		return Decision{}, fmt.Errorf("selector: no common network between %d and %d", a, b)
	}
	// 1. Prefer parallel-oriented SANs, in technology order. Machine-room
	// SANs are physically secure; only an explicit always policy
	// ciphers them.
	for _, kind := range sanOrder {
		for _, nw := range common {
			if nw.Kind == kind {
				return Decision{Network: nw, Method: "madio",
					Secure: qos.Cipher == CipherAlways}, nil
			}
		}
	}
	// 2. Prefer LAN over WAN over lossy Internet.
	best := common[0]
	rank := func(nw *topology.Network) int {
		switch nw.Kind {
		case topology.Ethernet:
			return 0
		case topology.WAN:
			return 1
		case topology.Internet:
			return 2
		default:
			return 3
		}
	}
	for _, nw := range common[1:] {
		if rank(nw) < rank(best) {
			best = nw
		}
	}
	// Effective figures: nameplate by default, forecast under weather.
	effBW, effLoss := best.RateBps, best.Loss
	if req.Oracle != nil {
		best, effBW, effLoss = applyWeather(req, common, best)
	}
	d := Decision{Network: best, Method: "sysio", Streams: 1}
	switch best.Kind {
	case topology.WAN:
		// Striping raises bandwidth at the price of per-chunk
		// reordering; a latency-sensitive channel keeps one stream.
		if qos.Streams > 1 && !qos.LatencySensitive {
			d.Method = "pstreams"
			d.Streams = qos.Streams
		}
	case topology.Internet:
		if qos.LossTolerance > 0 && effLoss > 0 {
			d.Method = "vrp"
		}
	}
	if qos.Compress && !qos.LatencySensitive && !qos.Collective {
		d.Compress = effBW < qos.CompressBelowBps
		// Sticky around the boundary when re-evaluating a live channel:
		// a link hovering near the threshold must not thrash the AdOC
		// wrapper on and off — leaving compression requires the
		// effective bandwidth to clear the threshold by the hysteresis
		// factor.
		if !d.Compress && req.Current != nil && req.Current.Network == best &&
			req.Current.Compress && effBW < qos.CompressBelowBps*DefaultHysteresis {
			d.Compress = true
		}
	}
	switch qos.Cipher {
	case CipherAlways:
		d.Secure = true
	case CipherAuto:
		d.Secure = !best.Secure || !g.SameSite(a, b)
	}
	return d, nil
}

// applyWeather overlays measured conditions on the distributed-network
// choice: among the pair's non-parallel candidates it keeps the
// incumbent (req.Current's network, else the static best) unless an
// alternative's forecast bandwidth beats the incumbent's by
// DefaultHysteresis — or the incumbent is in outage, in which case any
// live alternative wins. It returns the chosen network plus the
// effective bandwidth and loss figures the wrapper decisions should
// use. With no forecast for any candidate, the static choice and
// nameplate figures come back untouched (forecast-missing fallback).
func applyWeather(req Request, common []*topology.Network, static *topology.Network) (*topology.Network, float64, float64) {
	type cand struct {
		nw       *topology.Network
		eff      float64 // forecast (or nameplate) bandwidth; 0 when down
		loss     float64
		forecast bool
	}
	var cands []cand
	anyForecast := false
	for _, nw := range common {
		if nw.Kind.Parallel() || nw.Kind == topology.Loopback {
			continue
		}
		c := cand{nw: nw, eff: nw.RateBps, loss: nw.Loss}
		if f, ok := req.Oracle.Forecast(req.Src, req.Dst, nw); ok {
			anyForecast = true
			c.forecast = true
			c.loss = f.Loss
			switch {
			case f.Down:
				c.eff = 0
			case f.BandwidthBps > 0:
				c.eff = f.BandwidthBps
			}
		}
		cands = append(cands, c)
	}
	if !anyForecast || len(cands) == 0 {
		return static, static.RateBps, static.Loss
	}
	// Incumbent: the live channel's network when re-evaluating, else the
	// static classification's pick.
	incNW := static
	if req.Current != nil && req.Current.Network != nil {
		for _, c := range cands {
			if c.nw == req.Current.Network {
				incNW = c.nw
				break
			}
		}
	}
	inc := cands[0]
	for _, c := range cands {
		if c.nw == incNW {
			inc = c
			break
		}
	}
	// Best alternative by forecast bandwidth, declaration order breaking
	// ties (deterministic).
	alt := cands[0]
	for _, c := range cands[1:] {
		if c.eff > alt.eff {
			alt = c
		}
	}
	chosen := inc
	switch {
	case inc.eff <= 0 && alt.eff > 0:
		chosen = alt // incumbent down, any live link beats it
	case alt.eff > inc.eff*DefaultHysteresis:
		chosen = alt
	}
	if chosen.eff <= 0 {
		// Everything is down; keep the choice but decide wrappers from
		// nameplate figures so an unusable forecast does not stack
		// pointless adapters on top of a stalled link.
		return chosen.nw, chosen.nw.RateBps, chosen.nw.Loss
	}
	return chosen.nw, chosen.eff, chosen.loss
}
