package main

// adapter.go is the only file of the benchmark that names
// padico/internal/* symbols. Workloads, ladders and metrics code talk
// to the layers through the small vocabulary declared here — testbed,
// door (one request/reply path between node 0 and node 1), stream (one
// bulk path with a checking sink), dataGrid, packStore, mcastGroup — so
// that following an API move in a layer is an edit to this file alone.
// benchmarks/README.md lists every symbol used.

import (
	"errors"
	"fmt"
	"io"
	"time"

	"padico/internal/datagrid"
	"padico/internal/drivers/gm"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/iovec"
	"padico/internal/ipstack"
	"padico/internal/madapi"
	"padico/internal/madeleine"
	"padico/internal/model"
	"padico/internal/mpi"
	"padico/internal/netsim"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/selector"
	"padico/internal/session"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Proc is a simulated process; every blocking call of a layer takes one.
type Proc = vtime.Proc

// ---------------------------------------------------------------------
// Testbeds.

// testbed is one fresh kernel plus whatever was built on it. Every
// iteration and every ladder rung gets its own.
type testbed struct {
	k      *vtime.Kernel
	g      *grid.Grid // nil on a bare kernel
	buildS float64    // host seconds spent in the grid.* constructor

	// Layer objects built on this testbed; counters() reads their Stats.
	dg     *dataGrid
	pack   *packStore
	grp    *mcastGroup
	hub    *telemetry.Hub
	conns  []*ipstack.TCPConn
	wanHop *netsim.Hop // the lossy wide-area core, nil inside one site
}

func timedGrid(build func() *grid.Grid) *testbed {
	t0 := time.Now()
	g := build()
	return &testbed{k: g.K, g: g, buildS: time.Since(t0).Seconds(), wanHop: g.CoreHop("core:vthd")}
}

// newCluster is grid.Cluster(n): one site, Myrinet-2000 + Ethernet-100.
func newCluster(n int) *testbed { return timedGrid(func() *grid.Grid { return grid.Cluster(n) }) }

// newTwoSites is grid.TwoClusterWANLoss: nodes 0..n1-1 in one site, the
// rest in the other, joined by the VTHD-like WAN with seeded loss.
func newTwoSites(n1, n2 int, loss float64) *testbed {
	return timedGrid(func() *grid.Grid { return grid.TwoClusterWANLoss(n1, n2, loss) })
}

// newBareKernel is a kernel with no network: the store workload and the
// rungs that wire their own fabric.
func newBareKernel() *testbed { return &testbed{k: vtime.NewKernel()} }

// run executes root on the testbed's kernel. A kernel failure (deadlock
// or panic in a proc) comes back as the error.
func (tb *testbed) run(root func(p *Proc)) error { return tb.k.Run(root) }

// runErr is run for a root that can fail on its own: the kernel's
// failure comes first, root's error otherwise.
func (tb *testbed) runErr(root func(p *Proc) error) error {
	var failed error
	if err := tb.run(func(p *Proc) { failed = root(p) }); err != nil {
		return err
	}
	return failed
}

// simNow is the kernel's virtual clock in nanoseconds.
func (tb *testbed) simNow() int64 { return int64(tb.k.Now()) }

// kernelCounters are the kernel's event and proc-switch totals.
func (tb *testbed) kernelCounters() (events, switches int64) {
	return tb.k.EventsFired, tb.k.ProcSwitches
}

// sameSite reports whether two nodes share a site.
func (tb *testbed) sameSite(a, b int) bool {
	return tb.g.Topo.SameSite(topology.NodeID(a), topology.NodeID(b))
}

// enableTelemetry attaches the telemetry hub with span tracing on. It
// must run before the datagrid is built for the datagrid to see it.
func (tb *testbed) enableTelemetry() {
	tb.hub = tb.g.Telemetry()
	tb.hub.EnableTracing()
}

// hubSpans is the number of finished telemetry spans (0 with no hub).
func (tb *testbed) hubSpans() int { return len(tb.hub.Spans()) }

// poolCounters reads the process-wide iovec pool counters.
func poolCounters(into map[string]int64) {
	into["iovec.pool_gets"] = iovec.PoolGets()
	into["iovec.pool_misses"] = iovec.PoolMisses()
	into["iovec.pool_unpooled"] = iovec.PoolUnpooled()
}

// counters snapshots every counter the layers on this testbed expose.
// Callers take deltas over the timed section.
func (tb *testbed) counters() map[string]int64 {
	c := map[string]int64{
		"vtime.events_fired":  tb.k.EventsFired,
		"vtime.proc_switches": tb.k.ProcSwitches,
		"vtime.procs_spawned": tb.k.ProcsSpawned,
	}
	poolCounters(c)
	if tb.g != nil {
		s := tb.g.Session().Stats()
		c["session.opens"] = s.Opens
		c["session.circuit_reuses"] = s.CircuitReuses
	}
	if tb.wanHop != nil {
		c["netsim.drops"] = tb.wanHop.Drops
		c["netsim.core_busy_ns"] = tb.wanHop.BusyNs
		c["netsim.core_bytes"] = tb.wanHop.Bytes
	}
	for _, conn := range tb.conns {
		c["ipstack.tcp_segs_sent"] += conn.SegsSent
		c["ipstack.tcp_retransmits"] += conn.Retransmits
	}
	if tb.dg != nil {
		s := tb.dg.dg.Stats()
		c["datagrid.jobs"] = s.Jobs
		c["datagrid.retries"] = s.Retries
		c["datagrid.failures"] = s.Failures
		c["datagrid.bytes_moved"] = s.BytesMoved
		c["datagrid.wan_bytes"] = s.WANBytes
		c["datagrid.group_fanouts"] = s.GroupFanouts
	}
	if tb.pack != nil {
		s := tb.pack.stats()
		c["store.needles_written"] = s.NeedlesWritten
		c["store.tombstones"] = s.Tombstones
		c["store.bundle_bytes"] = s.BundleBytes
		c["store.bundle_rolls"] = s.BundleRolls
		c["store.cold_loads"] = s.ColdLoads
	}
	if tb.grp != nil {
		s := tb.grp.g.Stats()
		c["group.multicasts"] = s.Multicasts
		c["group.edges_opened"] = s.EdgesOpened
	}
	return c
}

// ---------------------------------------------------------------------
// Doors: one request/reply path between node 0 and node 1.

// serveFunc is the peer's behaviour: it gets the request bytes (valid
// only during the call) and returns the reply to send back.
type serveFunc func(req []byte) []byte

// door is an open request/reply path. call sends req, waits for the
// peer's reply of replyLen bytes and returns it (valid until the next
// call). Doors are opened for one request size and one reply size.
type door struct {
	layer string // module under internal/ that owns this front door
	route string // what was provisioned underneath, for route assertions
	call  func(p *Proc, req []byte) ([]byte, error)
	close func()
}

// doorSpec is how the front door of one layer is opened, on a testbed
// it may have to build.
type doorSpec struct {
	layer string
	below string // the rung this one stands on, "" for the lowest
	build func() *testbed
	open  func(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error)
}

// routeOf renders a selector decision as the route string the
// workloads assert on, e.g. "san/madio", "wan/pstreams x4 +gsec".
func routeOf(info session.Info) string {
	return fmt.Sprintf("%v/%s", info.Class, decisionRoute(info.Decision))
}

// decisionRoute renders the method and wrappers of a decision.
func decisionRoute(d selector.Decision) string {
	s := d.Method
	if d.Streams > 0 {
		s += fmt.Sprintf(" x%d", d.Streams)
	}
	if d.Compress {
		s += " +adoc"
	}
	if d.Secure {
		s += " +gsec"
	}
	return s
}

// daemon spawns a peer proc that does not count toward deadlock
// detection and is unwound when the root proc returns.
func (tb *testbed) daemon(name string, fn func(q *Proc)) { tb.k.GoDaemon(name, fn) }

// sessionOpt selects the per-channel QoS of a session door or stream.
type sessionOpt int

const (
	qosDefault     sessionOpt = iota // the deployment default
	qosPlainSingle                   // one stream, no cipher, no compression
	qosAdocGsec                      // one stream, AdOC forced on, cipher always
)

func (o sessionOpt) options(m *session.Manager) []session.Option {
	switch o {
	case qosPlainSingle:
		return []session.Option{session.WithStreams(1), session.WithCipher(selector.CipherNever),
			session.WithCompression(false)}
	case qosAdocGsec:
		q := m.Default()
		q.Streams = 1
		q.Compress = true
		q.CompressBelowBps = 1e12 // AdOC whatever the link's nameplate rate
		q.Cipher = selector.CipherAlways
		return []session.Option{session.WithQoS(q)}
	}
	return nil
}

// openSessionDoor opens session.Manager.Open(0 -> 1) and serves on the
// remote end with the message view.
func openSessionDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	ch, err := tb.g.Open(p, 0, 1)
	if err != nil {
		return nil, err
	}
	remote := ch.Remote()
	tb.daemon("peer:session", func(q *Proc) {
		for {
			segs, err := remote.Recv(q, reqLen)
			if err != nil {
				return
			}
			if remote.Send(q, serve(segs[0])) != nil {
				return
			}
		}
	})
	return &door{layer: "session", route: routeOf(ch.Info()),
		call: func(p *Proc, req []byte) ([]byte, error) {
			if err := ch.Send(p, req); err != nil {
				return nil, err
			}
			segs, err := ch.Recv(p, replyLen)
			if err != nil {
				return nil, err
			}
			return segs[0], nil
		},
		close: func() { ch.Close(); remote.Close() }}, nil
}

// sessionOpenClose is one Open+Close of a SAN channel 0 -> 1.
func sessionOpenClose(p *Proc, tb *testbed) error {
	ch, err := tb.g.Open(p, 0, 1)
	if err != nil {
		return err
	}
	ch.Remote().Close()
	return ch.Close()
}

const doorPort = 5000

// dialVLink connects node 0 to a listener on node 1 over a named driver.
func dialVLink(p *Proc, tb *testbed, driver string, port int) (a, b *vlink.VLink, err error) {
	ln, err := tb.g.RT[1].VLink.Listen(driver, port)
	if err != nil {
		return nil, nil, err
	}
	acc := vtime.NewQueue[*vlink.VLink]("acc")
	ln.SetAcceptHandler(func(v *vlink.VLink) { acc.Push(v) })
	a, err = tb.g.RT[0].VLink.ConnectWait(p, driver, vlink.Addr{Node: 1, Port: port})
	if err != nil {
		return nil, nil, err
	}
	return a, acc.Pop(p), nil
}

// openVLinkDoor is a raw VLink over the madio driver.
func openVLinkDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	va, vb, err := dialVLink(p, tb, "madio", doorPort)
	if err != nil {
		return nil, err
	}
	tb.daemon("peer:vlink", func(q *Proc) {
		buf := make([]byte, reqLen)
		for {
			if _, err := vb.ReadFull(q, buf); err != nil {
				return
			}
			if _, err := vb.Write(q, serve(buf)); err != nil {
				return
			}
		}
	})
	reply := make([]byte, replyLen)
	return &door{layer: "vlink", route: "madio",
		call: func(p *Proc, req []byte) ([]byte, error) {
			if _, err := va.Write(p, req); err != nil {
				return nil, err
			}
			_, err := va.ReadFull(p, reply)
			return reply, err
		},
		close: func() { va.Close(); vb.Close() }}, nil
}

// openCircuitDoor is a bare 2-rank Circuit wired by the selector.
func openCircuitDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	circs, err := tb.g.NewCircuits(p, "perf", []topology.NodeID{0, 1})
	if err != nil {
		return nil, err
	}
	c0, c1 := circs[0], circs[1]
	tb.daemon("peer:circuit", func(q *Proc) {
		for {
			in := c1.BeginUnpacking(q)
			req := in.Unpack(reqLen, madapi.ReceiveCheaper)
			in.EndUnpacking()
			out := c1.BeginPacking(0)
			out.Pack(serve(req), madapi.SendSafer)
			out.EndPacking()
		}
	})
	return &door{layer: "circuit", route: c0.Link(1).Name(),
		call: func(p *Proc, req []byte) ([]byte, error) {
			out := c0.BeginPacking(1)
			out.Pack(req, madapi.SendLater)
			out.EndPacking()
			in := c0.BeginUnpacking(p)
			reply := in.Unpack(replyLen, madapi.ReceiveCheaper)
			in.EndUnpacking()
			return reply, nil
		},
		close: func() { c0.Close(); c1.Close() }}, nil
}

// openMPIDoor is MPI over the virtual-Madeleine personality on a Circuit.
func openMPIDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	circs, err := tb.g.NewCircuits(p, "mpi", []topology.NodeID{0, 1})
	if err != nil {
		return nil, err
	}
	c0 := mpi.New(tb.k, personality.NewVMad(tb.k, circs[0]))
	c1 := mpi.New(tb.k, personality.NewVMad(tb.k, circs[1]))
	const reqTag, replyTag = 7, 8
	tb.daemon("peer:mpi", func(q *Proc) {
		buf := make([]byte, reqLen)
		for {
			c1.Recv(q, 0, reqTag, buf)
			c1.Send(q, 0, replyTag, serve(buf))
		}
	})
	reply := make([]byte, replyLen)
	return &door{layer: "mpi", route: "vmad/" + circs[0].Link(1).Name(),
		call: func(p *Proc, req []byte) ([]byte, error) {
			c0.Send(p, 1, reqTag, req)
			st := c0.Recv(p, 1, replyTag, reply)
			if st.Count != replyLen {
				return nil, fmt.Errorf("mpi: reply of %d bytes, want %d", st.Count, replyLen)
			}
			return reply, nil
		},
		close: func() {}}, nil
}

// openORBDoor is a CORBA invocation (omniORB 4 profile) over madio.
func openORBDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	const driver = "madio"
	server := orb.New(tb.k, tb.g.RT[1].VLink, orb.OmniORB4, driver, doorPort+1)
	server.RegisterServant("perf", orb.Servant{
		"echo": func(q *Proc, args *orb.Decoder, reply *orb.Encoder) error {
			reply.PutBytes(serve(args.Bytes()))
			return nil
		},
	})
	if err := server.Activate(); err != nil {
		return nil, err
	}
	client := orb.New(tb.k, tb.g.RT[0].VLink, orb.OmniORB4, driver, doorPort+2)
	ref, err := client.Resolve(server.IOR("perf"))
	if err != nil {
		return nil, err
	}
	return &door{layer: "orb", route: orb.OmniORB4.Name + "/" + driver,
		call: func(p *Proc, req []byte) ([]byte, error) {
			args := orb.NewEncoder()
			args.PutBytes(req)
			dec, err := ref.Invoke(p, "echo", args)
			if err != nil {
				return nil, err
			}
			return dec.Bytes(), nil
		},
		close: func() {}}, nil
}

// openMadIODoor drives the NetAccess MadIO multiplexer of the cluster's
// Myrinet directly on a logical channel of its own.
func openMadIODoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	const logical = 900
	myri := tb.g.Topo.Networks()[0]
	m0, m1 := tb.g.RT[0].MadIO[myri], tb.g.RT[1].MadIO[myri]
	if m0 == nil || m1 == nil {
		return nil, errors.New("netaccess: no MadIO on the first network")
	}
	replies := vtime.NewQueue[[]byte]("madio:replies")
	m1.Register(logical, func(q *Proc, src int, in madapi.InMessage) {
		req := in.Unpack(reqLen, madapi.ReceiveCheaper)
		in.EndUnpacking()
		m1.Send(src, logical, serve(req))
	})
	m0.Register(logical, func(q *Proc, src int, in madapi.InMessage) {
		reply := in.Unpack(replyLen, madapi.ReceiveCheaper)
		in.EndUnpacking()
		replies.Push(reply)
	})
	return &door{layer: "netaccess", route: m0.Name(),
		call: func(p *Proc, req []byte) ([]byte, error) {
			m0.Send(1, logical, req)
			return replies.Pop(p), nil
		},
		close: func() { m0.Unregister(logical); m1.Unregister(logical) }}, nil
}

// myrinetPair wires what grid.Cluster wires below MadIO, and nothing
// above: a Myrinet crossbar, two GM NICs, two Madeleine adapters.
func myrinetPair(k *vtime.Kernel) (xb *netsim.Crossbar, ads [2]*madeleine.Adapter) {
	xb = netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	addrs := []int{0, 1}
	for r := range ads {
		ads[r] = madeleine.New(k, madeleine.NewGM(gm.OpenNIC(k, xb, addrs[r]), addrs), r, len(addrs))
	}
	return xb, ads
}

// openMadeleineDoor packs and unpacks on a Madeleine channel over GM.
func openMadeleineDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	_, ads := myrinetPair(tb.k)
	var chs [2]*madeleine.Channel
	for r, ad := range ads {
		ch, err := ad.Open(0)
		if err != nil {
			return nil, err
		}
		chs[r] = ch
	}
	tb.daemon("peer:madeleine", func(q *Proc) {
		for {
			in := chs[1].BeginUnpacking(q)
			req := in.Unpack(reqLen, madapi.ReceiveCheaper)
			in.EndUnpacking()
			out := chs[1].BeginPacking(0)
			out.Pack(serve(req), madapi.SendSafer)
			out.EndPacking()
		}
	})
	return &door{layer: "madeleine", route: ads[0].Backend().Name(),
		call: func(p *Proc, req []byte) ([]byte, error) {
			out := chs[0].BeginPacking(1)
			out.Pack(req, madapi.SendLater)
			out.EndPacking()
			in := chs[0].BeginUnpacking(p)
			reply := in.Unpack(replyLen, madapi.ReceiveCheaper)
			in.EndUnpacking()
			return reply, nil
		},
		close: func() {}}, nil
}

// openCrossbarDoor bounces one packet each way over a bare Myrinet
// crossbar: the fabric model and one proc wake-up per round trip.
func openCrossbarDoor(p *Proc, tb *testbed, reqLen, replyLen int, serve serveFunc) (*door, error) {
	xb := netsim.NewCrossbar(tb.k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	replies := vtime.NewQueue[[]byte]("xbar:replies")
	xb.Attach(1, func(pkt *netsim.Packet) {
		reply := serve(pkt.Payload)
		xb.Send(&netsim.Packet{Src: 1, Dst: 0, Payload: reply, Wire: len(reply)})
	})
	xb.Attach(0, func(pkt *netsim.Packet) { replies.Push(pkt.Payload) })
	return &door{layer: "netsim", route: "crossbar",
		call: func(p *Proc, req []byte) ([]byte, error) {
			xb.Send(&netsim.Packet{Src: 0, Dst: 1, Payload: req, Wire: len(req)})
			return replies.Pop(p), nil
		},
		close: func() {}}, nil
}

// sanLadder is the stack on grid.Cluster(2), lowest rung first. Self
// cost of a rung is its cost minus the cost of the rung named in below.
var sanLadder = []doorSpec{
	{layer: "netsim", build: newBareKernel, open: openCrossbarDoor},
	{layer: "madeleine", below: "netsim", build: newBareKernel, open: openMadeleineDoor},
	{layer: "netaccess", below: "madeleine", build: cluster2, open: openMadIODoor},
	{layer: "circuit", below: "netaccess", build: cluster2, open: openCircuitDoor},
	{layer: "vlink", below: "netaccess", build: cluster2, open: openVLinkDoor},
	{layer: "session", below: "circuit", build: cluster2, open: openSessionDoor},
	{layer: "mpi", below: "circuit", build: cluster2, open: openMPIDoor},
	{layer: "orb", below: "vlink", build: cluster2, open: openORBDoor},
}

func cluster2() *testbed { return newCluster(2) }

// ---------------------------------------------------------------------
// Streams: one bulk path from node 0 to node 1 with a checking sink.

// stream is an open bulk path. write blocks until the substrate took
// the chunk; wait blocks until the sink has consumed total bytes.
type stream struct {
	route string
	write func(p *Proc, chunk []byte) error
	wait  func(p *Proc) error
	close func()
}

// streamSpec is how one layer's stream is opened, and which rung it
// stands on.
type streamSpec struct {
	layer string
	below string
	open  func(p *Proc, tb *testbed, total int, sink func(chunk []byte)) (*stream, error)
}

// reader is the receive side every stream substrate offers.
type reader interface {
	Read(p *Proc, buf []byte) (int, error)
}

// sinkProc spawns the receiving proc: it reads total bytes from r,
// hands every chunk to sink, and completes done.
func sinkProc(tb *testbed, r reader, total int, sink func([]byte)) *vtime.Future[int] {
	done := vtime.NewFuture[int]("sink")
	tb.k.Go("sink", func(q *Proc) {
		buf := make([]byte, 64<<10)
		got := 0
		for got < total {
			n, err := r.Read(q, buf)
			sink(buf[:n])
			got += n
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				done.Complete(got, err)
				return
			}
		}
		done.Complete(got, nil)
	})
	return done
}

func waitSink(done *vtime.Future[int]) func(p *Proc) error {
	return func(p *Proc) error {
		_, err := done.Wait(p)
		return err
	}
}

// openSessionStream opens a session channel 0 -> 1 with the given QoS
// and streams through its stream view.
func openSessionStream(opt sessionOpt) func(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
	return func(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
		ch, err := tb.g.Open(p, 0, 1, opt.options(tb.g.Session())...)
		if err != nil {
			return nil, err
		}
		remote := ch.Remote()
		done := sinkProc(tb, remote, total, sink)
		return &stream{route: routeOf(ch.Info()),
			write: func(p *Proc, chunk []byte) error {
				_, err := ch.Write(p, chunk)
				return err
			},
			wait:  waitSink(done),
			close: func() { ch.Close(); remote.Close() }}, nil
	}
}

// openVLinkStream dials a VLink with an explicit driver stack: the
// method driver plus the adoc/gsec wrappers, no session on top.
func openVLinkStream(dec selector.Decision) func(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
	return func(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
		va, vb, err := tb.g.DialVLinkWith(p, 0, 1, dec)
		if err != nil {
			return nil, err
		}
		done := sinkProc(tb, vb, total, sink)
		return &stream{route: decisionRoute(dec),
			write: func(p *Proc, chunk []byte) error {
				_, err := va.Write(p, chunk)
				return err
			},
			wait:  waitSink(done),
			close: func() { va.Close(); vb.Close() }}, nil
	}
}

// openTCPStream is one raw ipstack TCP connection, no VLink on top.
func openTCPStream(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
	ln, err := tb.g.Stack.Host(1).Listen(80)
	if err != nil {
		return nil, err
	}
	accepted := vtime.NewFuture[*ipstack.TCPConn]("accept")
	tb.k.Go("accept", func(q *Proc) { accepted.Complete(ln.Accept(q)) })
	c, err := tb.g.Stack.Host(0).Dial(p, 1, 80)
	if err != nil {
		return nil, err
	}
	peer, err := accepted.Wait(p)
	if err != nil {
		return nil, err
	}
	tb.conns = append(tb.conns, c)
	done := sinkProc(tb, peer, total, sink)
	return &stream{route: "tcp",
		write: func(p *Proc, chunk []byte) error { return c.Write(p, chunk) },
		wait:  waitSink(done),
		close: func() { c.Close(); peer.Close() }}, nil
}

// wanMSS is the payload of one full-size segment on the Ethernet-MTU WAN.
const wanMSS = 1460

// openPathStream pushes MSS-sized packets down a three-hop netsim.Path
// shaped like the WAN's (access, core, access) with no protocol on top:
// write returns once every packet of the chunk was delivered.
func openPathStream(p *Proc, tb *testbed, total int, sink func([]byte)) (*stream, error) {
	hop := func(name string, rate float64, lat time.Duration) *netsim.Hop {
		return &netsim.Hop{Name: name, Rate: rate, Latency: lat, QueueCap: 4096}
	}
	path := netsim.NewPath(tb.k, "perf", 1,
		hop("up", 12.2e6, 50*time.Microsecond),
		hop("core", model.VTHDCoreRate, model.VTHDWireLat),
		hop("down", 12.2e6, 50*time.Microsecond))
	arrived := vtime.NewCond("path:arrived")
	inFlight := 0
	path.SetDeliver(func(pkt *netsim.Packet) {
		sink(pkt.Payload)
		inFlight--
		if inFlight == 0 {
			arrived.Signal()
		}
	})
	return &stream{route: "path x3 hops",
		write: func(p *Proc, chunk []byte) error {
			for off := 0; off < len(chunk); off += wanMSS {
				end := min(off+wanMSS, len(chunk))
				inFlight++
				path.Send(&netsim.Packet{Payload: chunk[off:end], Wire: end - off + 40})
			}
			for inFlight > 0 {
				arrived.Wait(p)
			}
			return nil
		},
		wait:  func(p *Proc) error { return nil },
		close: func() {}}, nil
}

// wanLadder is the stack on the lossy WAN pair, lowest rung first.
var wanLadder = []streamSpec{
	{layer: "netsim", open: openPathStream},
	{layer: "ipstack", below: "netsim", open: openTCPStream},
	{layer: "vlink", below: "ipstack",
		open: openVLinkStream(selector.Decision{Method: "sysio", Streams: 1})},
	{layer: "pstreams", below: "vlink",
		open: openVLinkStream(selector.Decision{Method: "pstreams", Streams: 4})},
	{layer: "adoc", below: "vlink",
		open: openVLinkStream(selector.Decision{Method: "sysio", Streams: 1, Compress: true})},
	{layer: "gsec", below: "vlink",
		open: openVLinkStream(selector.Decision{Method: "sysio", Streams: 1, Secure: true})},
	{layer: "session", below: "vlink", open: openSessionStream(qosPlainSingle)},
}

// ---------------------------------------------------------------------
// Data grid, pack store, group.

// dataGrid is a replicated data grid with the durable pack engine.
type dataGrid struct{ dg *datagrid.DataGrid }

// newPackDataGrid is grid.NewPackDataGrid under dir.
func (tb *testbed) newPackDataGrid(dir string, replicas, streams int, hierarchical bool) *dataGrid {
	tb.dg = &dataGrid{tb.g.NewPackDataGrid(dir, store.PackConfig{},
		datagrid.Config{Replicas: replicas, Streams: streams, Hierarchical: hierarchical})}
	return tb.dg
}

func (d *dataGrid) put(p *Proc, client int, name string, data []byte) error {
	return d.dg.Put(p, topology.NodeID(client), name, data)
}
func (d *dataGrid) get(p *Proc, client int, name string) ([]byte, error) {
	return d.dg.Get(p, topology.NodeID(client), name)
}
func (d *dataGrid) waitSettled(p *Proc)      { d.dg.WaitSettled(p) }
func (d *dataGrid) verify(name string) error { return d.dg.VerifyReplicas(name) }
func (d *dataGrid) close() error             { return d.dg.Close() }

// jobErrors are the background replication jobs that gave up.
func (d *dataGrid) jobErrors() []error { return d.dg.JobErrors() }

// packStore is one node's durable pack engine on a bare kernel.
type packStore struct {
	tb     *testbed
	dir    string
	cfg    store.PackConfig
	e      *store.Pack
	closed store.Stats // counters of the engines closed so far
}

// openPack is store.OpenPack on dir; reopen closes and opens it again,
// which rebuilds the index from a needle scan.
func (tb *testbed) openPack(dir string, bundleMaxBytes int64) (*packStore, error) {
	s := &packStore{tb: tb, dir: dir, cfg: store.PackConfig{BundleMaxBytes: bundleMaxBytes}}
	tb.pack = s
	return s, s.open()
}

func (s *packStore) open() (err error) {
	s.e, err = store.OpenPack(s.tb.k, 0, s.dir, s.cfg)
	return err
}

// stats sums the counters of every engine opened on the directory.
func (s *packStore) stats() store.Stats {
	t := s.closed
	if s.e == nil {
		return t
	}
	cur := s.e.Stats()
	t.NeedlesWritten += cur.NeedlesWritten
	t.Tombstones += cur.Tombstones
	t.BundleBytes += cur.BundleBytes
	t.BundleRolls += cur.BundleRolls
	t.ColdLoads += cur.ColdLoads
	return t
}
func (s *packStore) put(p *Proc, key string, data []byte, sum [32]byte) error {
	return s.e.Put(p, key, data, sum)
}
func (s *packStore) read(p *Proc, key string) ([]byte, bool) { return s.e.Read(p, key) }
func (s *packStore) del(p *Proc, key string) bool            { return s.e.Delete(p, key) }
func (s *packStore) verify(p *Proc, key string) error        { return s.e.Verify(p, key) }
func (s *packStore) live() int                               { return s.e.Len() }

// close closes the engine, if one is open; its counters stay in stats.
func (s *packStore) close() error {
	if s.e == nil {
		return nil
	}
	s.closed = s.stats()
	err := s.e.Close()
	s.e = nil
	return err
}

// mcastGroup is a hierarchical communication group over all nodes.
type mcastGroup struct{ g *group.Group }

func (tb *testbed) newGroup(streams int) (*mcastGroup, error) {
	var members []topology.NodeID
	for _, n := range tb.g.Topo.Nodes() {
		members = append(members, n.ID)
	}
	g, err := tb.g.NewGroup(members, group.Config{Streams: streams})
	if err != nil {
		return nil, err
	}
	tb.grp = &mcastGroup{g}
	return tb.grp, nil
}

// multicast sends data from node 0 to every other member and returns
// the copy each one verified.
func (m *mcastGroup) multicast(p *Proc, tag string, data []byte) (map[int][]byte, error) {
	got, err := m.g.Multicast(p, 0, tag, data, 1)
	out := make(map[int][]byte, len(got))
	for n, b := range got {
		out[int(n)] = b
	}
	return out, err
}

// ---------------------------------------------------------------------
// vtime microbenchmarks.

// fireEvents schedules and fires n no-op events, a batch at a time.
func fireEvents(n int) error {
	k := vtime.NewKernel()
	nop := func() {}
	return k.Run(func(p *Proc) {
		const batch = 1000
		for done := 0; done < n; done += batch {
			for i := 0; i < batch; i++ {
				k.Schedule(time.Duration(i), nop)
			}
			p.Sleep(batch)
		}
	})
}

// switchProcs hands a token between two procs n times.
func switchProcs(n int) error {
	k := vtime.NewKernel()
	return k.Run(func(p *Proc) {
		ping, pong := vtime.NewQueue[int]("ping"), vtime.NewQueue[int]("pong")
		k.GoDaemon("peer", func(q *Proc) {
			for {
				pong.Push(ping.Pop(q))
			}
		})
		for i := 0; i < n; i++ {
			ping.Push(i)
			pong.Pop(p)
		}
	})
}

// kernelFailure reports whether err is the kernel giving up on a run
// (deadlock, or a panic inside a proc) rather than an error a layer
// returned.
func kernelFailure(err error) bool {
	var d *vtime.DeadlockError
	var pe *vtime.PanicError
	return errors.As(err, &d) || errors.As(err, &pe)
}
