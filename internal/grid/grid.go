// Package grid assembles complete simulated testbeds: topology, fabrics,
// protocol stacks, and one PadicoTM runtime (Runtime) per node.
// The canned deployments mirror the paper's evaluation platforms:
//
//   - Cluster:        dual-network cluster (Myrinet-2000 + Ethernet-100)
//   - TwoClusterWAN:  two such clusters joined by a VTHD-like WAN
//   - LossyPair:      two hosts over the lossy trans-continental link
//
// The builder also wires Circuits and VLinks between nodes following
// the selector's per-link decisions, which is exactly the role the
// PadicoTM bootstrap plays.
package grid

import (
	"fmt"
	"sort"
	"time"

	"padico/internal/adoc"
	"padico/internal/circuit"
	"padico/internal/datagrid"
	"padico/internal/drivers/gm"
	"padico/internal/group"
	"padico/internal/gsec"
	"padico/internal/ipstack"
	"padico/internal/madeleine"
	"padico/internal/model"
	"padico/internal/netaccess"
	"padico/internal/netsim"
	"padico/internal/pstreams"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// Grid is a fully wired testbed.
type Grid struct {
	K     *vtime.Kernel
	Topo  *topology.Grid
	Stack *ipstack.Stack
	RT    []*Runtime
	// Prefs is the deployment-wide default QoS; per-channel overrides
	// go through Session().Open options.
	Prefs selector.QoS
	// CoreHops indexes the wide-area core hops by name ("core:<wan>"
	// or "core:<wan>:<siteA>+<siteB>") — the handles condition
	// schedules and per-link byte accounting hang off.
	CoreHops map[string]*netsim.Hop

	sess *session.Manager
	wsvc *weather.Service

	nextPort    int
	nextLogical uint16
	nextCirc    int

	madAdapters map[topology.NodeID]*madeleine.Adapter // per node, first SAN
}

// Session returns the testbed's session manager — the front door
// middleware calls instead of wiring VLinks and Circuits by hand. The
// manager reads Prefs lazily, so retuning the testbed's default QoS
// affects later Opens.
func (g *Grid) Session() *session.Manager {
	if g.sess == nil {
		g.sess = session.NewManager(g.K, g.Topo, func() selector.QoS { return g.Prefs }, g)
	}
	return g.sess
}

// Open is Session().Open: one paradigm-agnostic channel from src to
// dst, substrate chosen by the selector.
func (g *Grid) Open(p *vtime.Proc, src, dst topology.NodeID, opts ...session.Option) (session.Channel, error) {
	return g.Session().Open(p, src, dst, opts...)
}

// EnableWeather attaches (and starts) a network-weather service to the
// testbed: the session manager consults its forecasts on every Open,
// closed channels feed its passive tap, and adaptive channels
// subscribe to its transitions. Idempotent; returns the service.
func (g *Grid) EnableWeather() *weather.Service {
	if g.wsvc == nil {
		g.wsvc = weather.New(g.K, g.Topo, g.Session(), g.Stack)
		g.Session().SetWeather(g.wsvc)
		g.wsvc.Start()
	}
	return g.wsvc
}

// Weather returns the attached weather service (nil without one).
func (g *Grid) Weather() *weather.Service { return g.wsvc }

// Telemetry attaches (and returns) the testbed's observability hub: a
// unified metrics registry, the virtual-time span tracer, and the
// flight recorder (see internal/telemetry). Idempotent. The session
// manager and IP stack are wired here; layers built by their own
// constructors (DataGrid, groups, weather, VRP) discover the hub at
// construction time — attach before building them to observe them.
func (g *Grid) Telemetry() *telemetry.Hub {
	h := telemetry.Attach(g.K)
	g.Stack.SetTelemetry(h)
	g.Session().SetTelemetry(h)
	// Core hops exist before the hub does; bind their utilization and
	// queue-depth instruments now (idempotent per hop).
	names := make([]string, 0, len(g.CoreHops))
	for name := range g.CoreHops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		netsim.RegisterHopMetrics(h.Registry(), g.CoreHops[name])
	}
	return h
}

// CoreHop returns a named wide-area core hop (nil if absent).
func (g *Grid) CoreHop(name string) *netsim.Hop { return g.CoreHops[name] }

// vlinkMadIOChannel is the logical channel the VLink madio driver uses
// on every MadIO instance.
const vlinkMadIOChannel = 100

// Cluster builds an n-node single-site cluster with Myrinet-2000 and
// Ethernet-100, GM as the Myrinet driver, and full runtimes.
func Cluster(n int) *Grid {
	g := newGrid()
	site := "rennes"
	myri := g.Topo.AddNetwork("myri0", topology.Myrinet, true, model.MyrinetRate, model.MyrinetWireLat, 0, 0)
	eth := g.Topo.AddNetwork("eth0", topology.Ethernet, true, model.EthernetRate, model.EthernetWireLat, 0, model.EthernetMTU)
	var nodes []*topology.Node
	for i := 0; i < n; i++ {
		node := g.Topo.AddNode(fmt.Sprintf("n%d", i), site)
		g.Topo.Attach(node, myri)
		g.Topo.Attach(node, eth)
		nodes = append(nodes, node)
	}
	g.wireEthernet(eth, 1)
	g.buildRuntimes()
	g.wireMyrinetGM(myri)
	return g
}

// TwoClusterWAN builds two clusters (n1 and n2 nodes) in different
// sites, each with its own Myrinet and Ethernet, joined by a VTHD-like
// WAN reached through each node's Ethernet access link.
func TwoClusterWAN(n1, n2 int) *Grid { return TwoClusterWANLoss(n1, n2, 0) }

// TwoClusterWANLoss is TwoClusterWAN with uniform random loss on the
// WAN core — the data-grid scenario, where isolated losses across the
// wide area are exactly what striped parallel transfers amortize.
func TwoClusterWANLoss(n1, n2 int, loss float64) *Grid {
	return multiSite([]string{"rennes", "grenoble"}, []string{"r", "g"}, []int{n1, n2}, func(g *Grid) {
		g.wireWAN(g.addVTHD(loss))
	})
}

// MultiSite builds a star of clusters: `sites` clusters of nodesPerSite
// nodes each (own Myrinet + Ethernet per site, like TwoClusterWAN's),
// every node reaching remote sites through its own WAN access link into
// one shared VTHD-like core. It is the group-communication testbed:
// hierarchical experiments are not limited to two clusters.
func MultiSite(sites, nodesPerSite int) *Grid { return MultiSiteLoss(sites, nodesPerSite, 0) }

// MultiSiteLoss is MultiSite with uniform random loss on the WAN core.
func MultiSiteLoss(sites, nodesPerSite int, loss float64) *Grid {
	if sites < 1 || nodesPerSite < 1 {
		panic(fmt.Sprintf("grid: MultiSite needs at least one site and one node, got %d x %d", sites, nodesPerSite))
	}
	return uniformSites(sites, nodesPerSite, func(g *Grid) { g.wireWAN(g.addVTHD(loss)) })
}

// uniformSites is multiSite over sites "site<s>" of nodesPerSite nodes
// named "s<s>-<i>".
func uniformSites(sites, nodesPerSite int, wan func(g *Grid)) *Grid {
	names := make([]string, sites)
	prefixes := make([]string, sites)
	counts := make([]int, sites)
	for s := range names {
		names[s] = fmt.Sprintf("site%d", s)
		prefixes[s] = fmt.Sprintf("s%d-", s)
		counts[s] = nodesPerSite
	}
	return multiSite(names, prefixes, counts, wan)
}

// multiSite assembles any star-of-clusters deployment: one Myrinet and
// one Ethernet per named site, counts[s] nodes with prefixes[s] names,
// and the wide-area networks joining the sites, which wan adds and
// wires once the LANs are.
func multiSite(sites, prefixes []string, counts []int, wan func(g *Grid)) *Grid {
	g := newGrid()
	var myris []*topology.Network
	var eths []*topology.Network
	for s := range sites {
		myri := g.Topo.AddNetwork(fmt.Sprintf("myri%d", s), topology.Myrinet, true, model.MyrinetRate, model.MyrinetWireLat, 0, 0)
		eth := g.Topo.AddNetwork(fmt.Sprintf("eth%d", s), topology.Ethernet, true, model.EthernetRate, model.EthernetWireLat, 0, model.EthernetMTU)
		myris = append(myris, myri)
		eths = append(eths, eth)
		for i := 0; i < counts[s]; i++ {
			node := g.Topo.AddNode(fmt.Sprintf("%s%d", prefixes[s], i), sites[s])
			g.Topo.Attach(node, myri)
			g.Topo.Attach(node, eth)
		}
	}
	for s := range sites {
		g.wireEthernet(eths[s], int64(s+1))
	}
	wan(g)
	g.buildRuntimes()
	for _, myri := range myris {
		g.wireMyrinetGM(myri)
	}
	return g
}

// addWAN declares a wide-area network every node attaches to.
func (g *Grid) addWAN(name string, kind topology.NetworkKind, rate float64, lat time.Duration, loss float64) *topology.Network {
	wan := g.Topo.AddNetwork(name, kind, false, rate, lat, loss, model.EthernetMTU)
	for _, node := range g.Topo.Nodes() {
		g.Topo.Attach(node, wan)
	}
	return wan
}

// addVTHD declares the VTHD-like WAN with uniform loss on its core.
func (g *Grid) addVTHD(loss float64) *topology.Network {
	return g.addWAN("vthd", topology.WAN, 12.2e6, model.VTHDWireLat, loss)
}

// DegradingWAN schedule: at DegradeAt the wide-area core between
// site0 and site1 collapses to 1/DegradeFactor of its rate — the VTHD
// suddenly behaving like a congested commodity path between exactly
// one site pair, while site2 stays pristine.
const (
	DegradeAt     = 6 * time.Second
	DegradeFactor = 16
	// DegradedCore names the site0–site1 core hop in CoreHops.
	DegradedCore = "core:vthd:site0+site1"
)

// DegradingWAN builds the dynamic-fabric testbed: three sites of
// nodesPerSite nodes (own Myrinet + Ethernet each, like MultiSite's),
// joined by a VTHD-like WAN with a *separate* core hop per site pair —
// so conditions can diverge per pair — and per-node access hops. The
// degrade schedule above is pre-armed on the kernel: it is part of the
// testbed description and fires in every run, weather or not, which is
// what makes static-vs-adaptive comparisons apples-to-apples.
func DegradingWAN(nodesPerSite int) *Grid {
	if nodesPerSite < 1 {
		panic(fmt.Sprintf("grid: DegradingWAN needs at least one node per site, got %d", nodesPerSite))
	}
	var wan *topology.Network
	g := uniformSites(3, nodesPerSite, func(g *Grid) {
		wan = g.addVTHD(0)
		g.wireWANPairCores(wan)
	})
	netsim.ScheduleRate(g.K, vtime.Time(0).Add(DegradeAt), g.CoreHops[DegradedCore], wan.RateBps/DegradeFactor)
	return g
}

// wireWANPairCores is wireWAN with one core hop per site pair instead
// of a single shared core: per-node access hops feed pair-specific
// cores, so a condition schedule can degrade exactly one site pair.
func (g *Grid) wireWANPairCores(wan *topology.Network) {
	g.wireCrossSite(wan, "", "wan", 100, func(a, b topology.NodeID) *netsim.Hop {
		s1, s2 := g.Topo.Node(a).Site, g.Topo.Node(b).Site
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		name := fmt.Sprintf("core:%s:%s+%s", wan.Name, s1, s2)
		core, ok := g.CoreHops[name]
		if !ok {
			// A pair core carries one site pair, not the whole star:
			// 256 packets (~370 KB) holds the healthy bandwidth-delay
			// product with room to spare, while bounding the queueing
			// delay a degraded core can inflict (tail drops push TCP
			// back instead of growing seconds of bufferbloat).
			core = &netsim.Hop{Name: name, Rate: model.VTHDCoreRate,
				Latency: model.VTHDWireLat, Loss: wan.Loss, QueueCap: 256}
			g.CoreHops[name] = core
		}
		return core
	})
}

// DualWAN builds the multi-homed failover testbed: two sites of
// nodesPerSite nodes (own Myrinet + Ethernet each), whose cross-site
// pairs ride *two* independent wide-area networks — the primary
// VTHD-like WAN plus a slower commodity-Internet backup, each behind
// its own core hop ("core:vthd", "core:backup"). Partitioning the
// primary core leaves the backup wire alive, so weather-driven
// re-selection has a different physical network to move traffic to.
func DualWAN(nodesPerSite int) *Grid {
	if nodesPerSite < 1 {
		panic(fmt.Sprintf("grid: DualWAN needs at least one node per site, got %d", nodesPerSite))
	}
	return uniformSites(2, nodesPerSite, func(g *Grid) {
		wan := g.addVTHD(0)
		backup := g.addWAN("backup", topology.Internet, 4e6, 12*time.Millisecond, 0)
		g.wireWAN(wan) // wired first: the primary claims the pair defaults
		g.wireExtraWAN(backup, 40e6, 500)
	})
}

// wireExtraWAN wires an additional wide-area network between the
// cross-site pairs of an already-wired testbed: its own per-node access
// hops and a shared core hop registered as "core:<name>". Routes land
// under the network's name only when a default already exists, so the
// primary WAN (wired first) keeps carrying un-pinned traffic.
func (g *Grid) wireExtraWAN(wan *topology.Network, coreRate float64, seed int64) {
	core := &netsim.Hop{Name: wan.Name + "-core", Rate: coreRate,
		Latency: wan.Latency, Loss: wan.Loss, QueueCap: 1024}
	g.CoreHops["core:"+wan.Name] = core
	g.wireCrossSite(wan, ":"+wan.Name+":", wan.Name, seed, func(a, b topology.NodeID) *netsim.Hop { return core })
}

// LossyPair builds two hosts in different sites joined only by the
// lossy trans-continental Internet link.
func LossyPair() *Grid {
	g := newGrid()
	inet := g.Topo.AddNetwork("transcont", topology.Internet, false, model.LossyRate, model.LossyWireLat, model.LossyLossPct, model.EthernetMTU)
	a := g.Topo.AddNode("paris", "paris")
	b := g.Topo.AddNode("tsukuba", "tsukuba")
	g.Topo.Attach(a, inet)
	g.Topo.Attach(b, inet)
	mk := func(seed int64) *netsim.Path {
		return netsim.NewPath(g.K, "transcont", seed,
			&netsim.Hop{Name: "transcont", Rate: model.LossyRate,
				Latency: model.LossyWireLat, Loss: model.LossyLossPct, QueueCap: 256})
	}
	g.Stack.ConnectPath(a.ID, b.ID, mk(31), mk(32), model.EthernetMTU)
	g.buildRuntimes()
	return g
}

func newGrid() *Grid {
	k := vtime.NewKernel()
	return &Grid{
		K: k, Topo: topology.New(), Stack: ipstack.New(k),
		Prefs:    selector.DefaultQoS(),
		CoreHops: make(map[string]*netsim.Hop),
		nextPort: 20000, nextLogical: 2000,
	}
}

// wireEthernet connects every pair of a LAN's members through a shared
// switched fabric.
func (g *Grid) wireEthernet(eth *topology.Network, seed int64) {
	lan := netsim.NewSwitchedLAN(g.K, model.EthernetRate, model.EthernetFrameOH, model.EthernetWireLat, eth.Loss, seed)
	members := eth.Members()
	for i, a := range members {
		for _, b := range members[i+1:] {
			aAddr, _ := eth.Addr(a)
			bAddr, _ := eth.Addr(b)
			g.Stack.ConnectLANVia(eth.Name, lan, a, aAddr, b, bAddr, model.EthernetMTU)
		}
	}
}

// wireWAN connects every cross-site pair through shared per-node access
// hops and a shared core, so parallel streams contend for the same
// access link (the paper's 12 MB/s cap).
func (g *Grid) wireWAN(wan *topology.Network) {
	core := &netsim.Hop{Name: "vthd-core", Rate: model.VTHDCoreRate,
		Latency: model.VTHDWireLat, Loss: wan.Loss, QueueCap: 4096}
	g.CoreHops["core:"+wan.Name] = core
	g.wireCrossSite(wan, "", "wan", 100, func(a, b topology.NodeID) *netsim.Hop { return core })
}

// wireCrossSite connects every cross-site pair of wan's members (same-
// site pairs use their LAN) through per-node access hops named
// "up<access><node>" and "down<access><node>" and the core hop core(a, b)
// returns. Paths are named "<path>:<src>-><dst>" and seeded from seed
// up, two per pair.
func (g *Grid) wireCrossSite(wan *topology.Network, access, path string, seed int64, core func(a, b topology.NodeID) *netsim.Hop) {
	up := make(map[topology.NodeID]*netsim.Hop)
	down := make(map[topology.NodeID]*netsim.Hop)
	members := wan.Members()
	for _, n := range members {
		up[n] = &netsim.Hop{Name: fmt.Sprintf("up%s%d", access, n), Rate: wan.RateBps,
			Latency: 50 * time.Microsecond, QueueCap: 256}
		down[n] = &netsim.Hop{Name: fmt.Sprintf("down%s%d", access, n), Rate: wan.RateBps,
			Latency: 50 * time.Microsecond, QueueCap: 256}
	}
	for i, a := range members {
		for _, b := range members[i+1:] {
			if g.Topo.SameSite(a, b) {
				continue
			}
			c := core(a, b)
			seed++
			ab := netsim.NewPath(g.K, fmt.Sprintf("%s:%d->%d", path, a, b), seed, up[a], c, down[b])
			seed++
			ba := netsim.NewPath(g.K, fmt.Sprintf("%s:%d->%d", path, b, a), seed, up[b], c, down[a])
			g.Stack.ConnectPathVia(wan.Name, a, b, ab, ba, model.EthernetMTU)
		}
	}
}

// buildRuntimes creates a Runtime per node with SysIO and the sysio
// VLink driver (madio is added per SAN). Same-node pairs never reach a
// VLink: the selector answers "loopback" and the session layer opens a
// local pipe.
func (g *Grid) buildRuntimes() {
	for _, node := range g.Topo.Nodes() {
		rt := NewRuntime(g.K, node, g.Stack.Host(node.ID))
		rt.VLink.AddDriver(vlink.NewSysIODriver(g.K, rt.Host, rt.Sys))
		g.RT = append(g.RT, rt)
	}
}

// wireMyrinetGM attaches a Myrinet crossbar with GM NICs, Madeleine,
// MadIO and the VLink madio driver to every member runtime.
func (g *Grid) wireMyrinetGM(myri *topology.Network) {
	xb := netsim.NewCrossbar(g.K, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	members := myri.Members()
	addrs := make([]int, len(members))
	for r, n := range members {
		addrs[r], _ = myri.Addr(n)
	}
	for r, n := range members {
		rt := g.RT[n]
		nic := gm.OpenNIC(g.K, xb, addrs[r])
		ad := madeleine.New(g.K, madeleine.NewGM(nic, addrs), r, len(members))
		if g.madAdapters == nil {
			g.madAdapters = make(map[topology.NodeID]*madeleine.Adapter)
		}
		if _, dup := g.madAdapters[n]; !dup {
			g.madAdapters[n] = ad
		}
		ch, err := ad.Open(0)
		if err != nil {
			panic(err)
		}
		mio := netaccess.NewMadIO(rt.NA, ch, myri.Name, true)
		rt.AttachMadIO(myri, mio, members)
		rankOf := func(id topology.NodeID) (int, bool) { return rt.MadRank(myri, id) }
		nodeOf := func(rank int) topology.NodeID { return members[rank] }
		rt.VLink.AddDriver(vlink.NewMadIODriver(g.K, n, mio, vlinkMadIOChannel, rankOf, nodeOf))
	}
}

// NewDataGrid layers a replicated data-grid (ring placement, replica
// catalog, bulk transfers) over this testbed. Its transfers open
// session channels, so they ride the same selector decisions — and the
// same per-pair circuit cache — as every other middleware.
func (g *Grid) NewDataGrid(cfg datagrid.Config) *datagrid.DataGrid {
	if cfg.Weather == nil && g.wsvc != nil {
		cfg.Weather = g.wsvc
	}
	return datagrid.New(g.K, g.Topo, g.Session(), cfg)
}

// NewPackDataGrid is NewDataGrid with the durable pack store: every
// node persists its replicas as needles in bundle files under
// dir/node-<id>. A later testbed over the same directory resumes from
// the bundles (Close the datagrid first so appends are flushed).
func (g *Grid) NewPackDataGrid(dir string, pcfg store.PackConfig, cfg datagrid.Config) *datagrid.DataGrid {
	cfg.Engine = store.PackFactory(dir, pcfg)
	return g.NewDataGrid(cfg)
}

// NewGroup forms a hierarchical communication group over this
// testbed's session manager: a two-tier spanning tree (site leaders
// across the WAN, binomial fan-out inside each cluster) carrying
// Multicast/Reduce/Barrier/Gather.
func (g *Grid) NewGroup(members []topology.NodeID, cfg group.Config) (*group.Group, error) {
	return group.New(g.K, g.Topo, g.Session(), members, cfg)
}

// allocPort hands out distinct rendezvous ports for builder wiring.
func (g *Grid) allocPort() int {
	g.nextPort++
	return g.nextPort
}

// ---------------------------------------------------------------------
// VLink wiring via the selector. These are the session Manager's
// substrate primitives (and the ablation API for benchmarks that need
// an explicit Decision); middleware should open channels through
// Session() instead.

// DialVLinkWith opens a VLink from a to b with the driver and wrappers
// of an explicit decision; the listener side is set up transparently.
// It blocks p until established and returns the two ends (dialer side,
// acceptor side). Both runtimes must exist.
func (g *Grid) DialVLinkWith(p *vtime.Proc, a, b topology.NodeID, dec selector.Decision) (*vlink.VLink, *vlink.VLink, error) {
	port := g.allocPort()
	da, err := g.buildDriverStack(g.RT[a], dec)
	if err != nil {
		return nil, nil, err
	}
	db, err := g.buildDriverStack(g.RT[b], dec)
	if err != nil {
		return nil, nil, err
	}
	ln, err := g.RT[b].VLink.ListenDriver(db, port)
	if err != nil {
		return nil, nil, err
	}
	accepted := vtime.NewQueue[*vlink.VLink]("accepted")
	ln.SetAcceptHandler(func(v *vlink.VLink) { accepted.Push(v) })
	va, op := g.RT[a].VLink.ConnectDriver(da, vlink.Addr{Node: b, Port: port})
	if _, err := op.Wait(p); err != nil {
		return nil, nil, err
	}
	vb, ok := accepted.PopTimeout(p, 10*time.Second)
	if !ok {
		return nil, nil, fmt.Errorf("grid: accept timeout %d->%d", a, b)
	}
	return va, vb, nil
}

// buildDriverStack composes the method driver with optional adoc and
// gsec wrappers per the decision.
func (g *Grid) buildDriverStack(rt *Runtime, dec selector.Decision) (vlink.Driver, error) {
	var d vlink.Driver
	var err error
	switch dec.Method {
	case "madio":
		d, err = rt.VLink.Driver("madio")
	case "sysio", "vrp": // vrp has a message API; its stream adapter uses sysio for now
		d, err = rt.VLink.Driver("sysio")
		d = pinNetwork(d, dec)
	case "pstreams":
		var inner vlink.Driver
		inner, err = rt.VLink.Driver("sysio")
		if err == nil {
			d = pstreams.New(g.K, rt.Node().ID, pinNetwork(inner, dec), dec.Streams)
		}
	default:
		err = fmt.Errorf("grid: unknown method %q", dec.Method)
	}
	if err != nil {
		return nil, err
	}
	// Cipher inside, compression outside: the application's writes must
	// reach AdOC as plaintext (ciphertext has no redundancy left to
	// compress), and the wire then carries the encrypted form of the
	// compressed stream.
	if dec.Secure {
		d = gsec.New(g.K, d, gsec.Credential{ID: "grid-ca", Key: []byte("padico-psk-0001")})
	}
	if dec.Compress {
		d = adoc.New(g.K, d)
	}
	return d, nil
}

// pinNetwork threads the selector's Decision.Network down to the sysio
// driver: a multi-homed pair dials on the decided wire, so a weather
// re-selection after a partition actually moves traffic to a different
// physical network instead of re-dialing the same dead one.
func pinNetwork(d vlink.Driver, dec selector.Decision) vlink.Driver {
	if dec.Network == nil {
		return d
	}
	if sd, ok := d.(*vlink.SysIODriver); ok {
		return sd.WithNetwork(dec.Network.Name)
	}
	return d
}

// ---------------------------------------------------------------------
// Circuit wiring via the selector.

// NewCircuits builds one Circuit per member node over the given node
// set, with per-link adapters chosen by the selector, and returns them
// indexed by rank. Must run inside a proc (stream links handshake).
func (g *Grid) NewCircuits(p *vtime.Proc, name string, nodes []topology.NodeID) ([]*circuit.Circuit, error) {
	g.nextCirc++
	circs := make([]*circuit.Circuit, len(nodes))
	for r := range nodes {
		circs[r] = circuit.New(g.K, name, r, nodes)
	}
	// madio ports are shared per (circuit, network, node); allocate the
	// logical channel once per network so every member uses the same id.
	g.nextLogical++
	logical := g.nextLogical
	ports := make(map[string]*circuit.MadIOPort) // key: network/node
	for i := range nodes {
		for j := range nodes {
			if i == j {
				circs[i].SetLink(i, circuit.NewLoopbackLink(g.K, circs[i], i))
				continue
			}
			if i > j {
				continue // links are wired pairwise below
			}
			if err := g.wireCircuitLink(p, name, logical, ports, circs, nodes, i, j); err != nil {
				return nil, err
			}
		}
	}
	return circs, nil
}

// wireCircuitLink connects ranks i<j of the circuit per the selector.
func (g *Grid) wireCircuitLink(p *vtime.Proc, name string, logical uint16,
	ports map[string]*circuit.MadIOPort, circs []*circuit.Circuit,
	nodes []topology.NodeID, i, j int) error {
	a, b := nodes[i], nodes[j]
	dec, err := selector.Select(g.Topo, selector.Request{Src: a, Dst: b, QoS: g.Prefs})
	if err != nil {
		return err
	}
	if dec.Method == "madio" {
		for _, pair := range [2][2]int{{i, j}, {j, i}} {
			self, other := pair[0], pair[1]
			rt := g.RT[nodes[self]]
			key := fmt.Sprintf("%s/%d", dec.Network.Name, nodes[self])
			port, ok := ports[key]
			if !ok {
				mio := rt.MadIO[dec.Network]
				if mio == nil {
					return fmt.Errorf("grid: no MadIO on %s for node %d", dec.Network.Name, nodes[self])
				}
				members := rt.Members(dec.Network)
				circRankOf := make(map[topology.NodeID]int, len(nodes))
				for r, nd := range nodes {
					circRankOf[nd] = r
				}
				madRank := func(cr int) int {
					r, _ := rt.MadRank(dec.Network, nodes[cr])
					return r
				}
				circRank := func(mr int) int { return circRankOf[members[mr]] }
				port = circuit.NewMadIOPort(mio, logical, circs[self], madRank, circRank)
				ports[key] = port
			}
			circs[self].SetLink(other, port.Link(other))
		}
		return nil
	}
	// Stream link: one VLink per direction pair over the chosen method.
	va, vb, err := g.DialVLinkWith(p, a, b, dec)
	if err != nil {
		return err
	}
	circs[i].SetLink(j, circuit.NewVLinkLink(va, circs[i], j))
	circs[j].SetLink(i, circuit.NewVLinkLink(vb, circs[j], i))
	return nil
}

// RewireMadIONoCombining opens the second Myrinet hardware channel on
// nodes a and b with MadIO header combining disabled — the §4.1
// ablation comparator.
func RewireMadIONoCombining(g *Grid, a, b topology.NodeID) (*netaccess.MadIO, *netaccess.MadIO) {
	mk := func(n topology.NodeID) *netaccess.MadIO {
		ad := g.madAdapters[n]
		ch, err := ad.Open(1) // Myrinet's second (and last) hardware channel
		if err != nil {
			panic(err)
		}
		return netaccess.NewMadIO(g.RT[n].NA, ch, "myri-nocombine", false)
	}
	return mk(a), mk(b)
}
