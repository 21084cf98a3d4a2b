// The paper's own evaluation (§5): middleware stacks on a 2-node
// Myrinet cluster (Figure 3, Table 1, the overhead claims), the VTHD
// WAN and the lossy trans-continental link.
package bench

import (
	"fmt"
	"strings"
	"time"

	"padico/internal/grid"
	"padico/internal/ipstack"
	"padico/internal/madapi"
	"padico/internal/mpi"
	"padico/internal/orb"
	"padico/internal/personality"
	"padico/internal/rmi"
	"padico/internal/scenario"
	"padico/internal/selector"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vrp"
	"padico/internal/vtime"
)

// Fig3Sizes are the message sizes of the figure's x-axis.
var Fig3Sizes = []int{32, 256, 1 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20}

// Point is one (size, bandwidth) sample.
type Point struct {
	Size int
	MBps float64
}

// Series is one curve of Figure 3.
type Series struct {
	Name   string
	Points []Point
}

// Row is one column of Table 1.
type Row struct {
	Name     string
	OnewayUS float64 // one-way latency, µs
	PeakMBps float64 // bandwidth at 1 MB
}

// ---------------------------------------------------------------------
// Middleware stacks on a 2-node Myrinet cluster.

// exchange is the bandwidth and latency protocol of the paper's tests:
// send size bytes, get a small ack; timing happens outside.
type exchange func(p *vtime.Proc, size int) error

// Runner builds a middleware stack inside a fresh simulation per
// measurement (isolation) and times exchanges on it.
type Runner struct {
	name  string
	build func(g *grid.Grid, p *vtime.Proc) (exchange, error)
}

// Measure times reps exchanges of size bytes and returns the mean
// exchange time and the implied bandwidth in MB/s.
func (r *Runner) Measure(size, reps int) (time.Duration, float64, error) {
	rn := &run{}
	per, mbps := r.measure(rn, size, reps)
	return per, mbps, rn.err
}

func (r *Runner) measure(rn *run, size, reps int) (per time.Duration, mbps float64) {
	rn.do(scenario.Spec{Name: r.name, Testbed: grid.Cluster(2)}, func(env *scenario.Env, p *vtime.Proc) error {
		xfer, err := r.build(env.G, p)
		if err == nil {
			err = xfer(p, size) // warm-up (connection setup, allocations)
		}
		start := p.Now()
		for i := 0; i < reps && err == nil; i++ {
			err = xfer(p, size)
		}
		per = p.Now().Sub(start) / time.Duration(reps)
		return err
	})
	return per, float64(size) / per.Seconds() / 1e6
}

// onewayUS is the Table 1 latency protocol: half a 1-byte exchange.
func (r *Runner) onewayUS(rn *run) float64 {
	lat, _ := r.measure(rn, 1, 256)
	return float64(lat.Nanoseconds()) / 2 / 1e3
}

// spawn runs peer, the far side of one exchange, on a fresh proc; the
// returned func joins it.
func spawn(p *vtime.Proc, peer func(q *vtime.Proc)) (join func()) {
	done := vtime.NewWaitGroup("x")
	done.Add(1)
	p.Kernel().Go("peer", func(q *vtime.Proc) {
		peer(q)
		done.Done()
	})
	return func() { done.Wait(p) }
}

// mpiOn builds MPI over a Circuit: through the virtual-Madeleine
// personality (the in-PadicoTM configuration) or straight on the
// Circuit channel (the "standalone MPICH" comparator).
func mpiOn(name string, padico bool) *Runner {
	return &Runner{name, func(g *grid.Grid, p *vtime.Proc) (exchange, error) {
		circs, err := g.NewCircuits(p, name, []topology.NodeID{0, 1})
		if err != nil {
			return nil, err
		}
		var ch0, ch1 madapi.Channel = circs[0], circs[1]
		if padico {
			ch0, ch1 = personality.NewVMad(g.K, circs[0]), personality.NewVMad(g.K, circs[1])
		}
		c0, c1 := mpi.New(g.K, ch0), mpi.New(g.K, ch1)
		return func(p *vtime.Proc, size int) error {
			join := spawn(p, func(q *vtime.Proc) {
				c1.Recv(q, 0, 7, make([]byte, size))
				c1.Send(q, 0, 8, []byte{1})
			})
			c0.Send(p, 1, 7, make([]byte, size))
			c0.Recv(p, 1, 8, make([]byte, 1))
			join()
			return nil
		}, nil
	}}
}

// MPIPadico is MPI inside PadicoTM.
func MPIPadico() *Runner { return mpiOn("mpi", true) }

// ORBOnMyrinet builds a CORBA client/server pair with the given profile
// over the Myrinet madio driver.
func ORBOnMyrinet(profile orb.Profile) *Runner {
	return &Runner{"orb/" + profile.Name, func(g *grid.Grid, p *vtime.Proc) (exchange, error) {
		server := orb.New(g.K, g.RT[1].VLink, profile, "madio", 5000)
		server.RegisterServant("bench", orb.Servant{
			"sink": func(q *vtime.Proc, args *orb.Decoder, reply *orb.Encoder) error {
				args.Bytes()
				reply.PutU32(1)
				return nil
			},
		})
		if err := server.Activate(); err != nil {
			return nil, err
		}
		ref, err := orb.New(g.K, g.RT[0].VLink, profile, "madio", 5001).Resolve(server.IOR("bench"))
		return func(p *vtime.Proc, size int) error {
			args := orb.NewEncoder()
			args.PutBytes(make([]byte, size))
			_, err := ref.Invoke(p, "sink", args)
			return err
		}, err
	}}
}

// duplex is what a stream exchange needs of either end.
type duplex interface {
	Write(p *vtime.Proc, b []byte) (int, error)
	ReadFull(p *vtime.Proc, b []byte) (int, error)
}

// streamOn dials a VLink pair over the madio driver and exchanges over
// the stream wrap builds on each end: the bare VLink abstract interface
// (identity), or Java sockets (rmi.NewJavaSocket).
func streamOn(name string, wrap func(k *vtime.Kernel, v *vlink.VLink) duplex) *Runner {
	return &Runner{name, func(g *grid.Grid, p *vtime.Proc) (exchange, error) {
		ln, err := g.RT[1].VLink.Listen("madio", 5000)
		if err != nil {
			return nil, err
		}
		acc := vtime.NewQueue[*vlink.VLink]("acc")
		ln.SetAcceptHandler(func(v *vlink.VLink) { acc.Push(v) })
		va, err := g.RT[0].VLink.ConnectWait(p, "madio", vlink.Addr{Node: 1, Port: 5000})
		if err != nil {
			return nil, err
		}
		a, b := wrap(g.K, va), wrap(g.K, acc.Pop(p))
		return func(p *vtime.Proc, size int) error {
			join := spawn(p, func(q *vtime.Proc) {
				b.ReadFull(q, make([]byte, size))
				b.Write(q, []byte{1})
			})
			a.Write(p, make([]byte, size))
			a.ReadFull(p, make([]byte, 1))
			join()
			return nil
		}, nil
	}}
}

func vlinkOnMyrinet() *Runner {
	return streamOn("vlink", func(_ *vtime.Kernel, v *vlink.VLink) duplex { return v })
}

func javaOnMyrinet() *Runner {
	return streamOn("java", func(k *vtime.Kernel, v *vlink.VLink) duplex { return rmi.NewJavaSocket(k, v) })
}

// circuitOnMyrinet measures the bare Circuit abstract interface.
func circuitOnMyrinet() *Runner {
	return &Runner{"circuit", func(g *grid.Grid, p *vtime.Proc) (exchange, error) {
		circs, err := g.NewCircuits(p, "bench", []topology.NodeID{0, 1})
		if err != nil {
			return nil, err
		}
		c0, c1 := circs[0], circs[1]
		return func(p *vtime.Proc, size int) error {
			join := spawn(p, func(q *vtime.Proc) {
				in := c1.BeginUnpacking(q)
				in.Unpack(size, madapi.ReceiveCheaper)
				in.EndUnpacking()
				out := c1.BeginPacking(0)
				out.Pack([]byte{1}, madapi.SendSafer)
				out.EndPacking()
			})
			out := c0.BeginPacking(1)
			out.Pack(make([]byte, size), madapi.SendLater)
			out.EndPacking()
			in := c0.BeginUnpacking(p)
			in.Unpack(1, madapi.ReceiveCheaper)
			in.EndUnpacking()
			join()
			return nil
		}, nil
	}}
}

// named pairs a Runner with the name the paper prints it under.
type named struct {
	name string
	r    *Runner
}

// ---------------------------------------------------------------------
// Figure 3.

// fig3 produces every curve of Figure 3 plus the Ethernet TCP
// reference (the curve without a Runner). Each point runs on a fresh
// simulation for isolation.
func fig3(rn *run) *Report {
	var out []Series
	for _, c := range []named{
		{"omniORB-3.0.2/Myrinet-2000", ORBOnMyrinet(orb.OmniORB3)},
		{"omniORB-4.0.0/Myrinet-2000", ORBOnMyrinet(orb.OmniORB4)},
		{"Mico-2.3.7/Myrinet-2000", ORBOnMyrinet(orb.Mico)},
		{"ORBacus-4.0.5/Myrinet-2000", ORBOnMyrinet(orb.ORBacus)},
		{"MPICH/Myrinet-2000", MPIPadico()},
		{"Java socket/Myrinet-2000", javaOnMyrinet()},
		{"TCP/Ethernet-100 (reference)", nil},
	} {
		s := Series{Name: c.name}
		for _, size := range Fig3Sizes {
			reps := 8
			if size <= 1024 {
				reps = 64
			}
			mbps := 0.0
			if c.r != nil {
				_, mbps = c.r.measure(rn, size, reps)
			} else {
				mbps = tcpEthernet(rn, size, reps/2)
			}
			s.Points = append(s.Points, Point{Size: size, MBps: mbps})
		}
		out = append(out, s)
	}
	var b strings.Builder
	fmt.Fprintln(&b, "=== Figure 3: bandwidth (MB/s) of middleware systems in PadicoTM over Myrinet-2000 ===")
	fmt.Fprintf(&b, "%-34s", "message size")
	for _, sz := range Fig3Sizes {
		label := fmt.Sprintf("%dB", sz)
		if sz >= 1<<20 {
			label = fmt.Sprintf("%dMB", sz>>20)
		} else if sz >= 1<<10 {
			label = fmt.Sprintf("%dKB", sz>>10)
		}
		fmt.Fprintf(&b, "%10s", label)
	}
	fmt.Fprintln(&b)
	for _, s := range out {
		fmt.Fprintf(&b, "%-34s", s.Name)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%10.1f", pt.MBps)
		}
		fmt.Fprintln(&b)
	}
	return &Report{Text: b.String(), Rows: out}
}

// tcpPair opens one TCP connection from node 0 to node 1 of g and
// returns both ends.
func tcpPair(g *grid.Grid, p *vtime.Proc) (cli, srv *ipstack.TCPConn, err error) {
	ln, err := g.Stack.Host(1).Listen(80)
	if err != nil {
		return nil, nil, err
	}
	if cli, err = g.Stack.Host(0).Dial(p, 1, 80); err != nil {
		return nil, nil, err
	}
	srv, err = ln.Accept(p)
	return cli, srv, err
}

// tcpEthernet is one point of the "TCP/Ethernet-100 (reference)" curve:
// reps acknowledged size-byte exchanges over plain TCP.
func tcpEthernet(rn *run, size, reps int) (mbps float64) {
	rn.do(scenario.Spec{Name: "tcp-ethernet", Testbed: grid.Cluster(2)}, func(env *scenario.Env, p *vtime.Proc) error {
		cli, srv, err := tcpPair(env.G, p)
		if err != nil {
			return err
		}
		payload := make([]byte, size)
		xfer := func() error {
			if _, err := env.Stream(p, scenario.Pipe{Write: cli.Write, Read: srv.Read}, payload, size, 64<<10); err != nil {
				return err
			}
			if err := srv.Write(p, []byte{1}); err != nil {
				return err
			}
			_, err := cli.ReadFull(p, make([]byte, 1))
			return err
		}
		err = xfer() // warm-up is folded in: first exchange grows cwnd
		start := p.Now()
		for i := 0; i < reps-1 && err == nil; i++ {
			err = xfer()
		}
		per := p.Now().Sub(start) / time.Duration(reps-1)
		mbps = float64(size) / per.Seconds() / 1e6
		return err
	})
	return mbps
}

// ---------------------------------------------------------------------
// Table 1.

// table1 reproduces the latency/bandwidth table.
func table1(rn *run) *Report {
	var rows []Row
	for _, c := range []named{
		{"Circuit", circuitOnMyrinet()},
		{"VLink", vlinkOnMyrinet()},
		{"MPICH", MPIPadico()},
		{"omniORB 3", ORBOnMyrinet(orb.OmniORB3)},
		{"omniORB 4", ORBOnMyrinet(orb.OmniORB4)},
		{"Java sockets", javaOnMyrinet()},
		{"Mico", ORBOnMyrinet(orb.Mico)},
		{"ORBacus", ORBOnMyrinet(orb.ORBacus)},
	} {
		lat := c.r.onewayUS(rn)
		_, bw := c.r.measure(rn, 1<<20, 16)
		rows = append(rows, Row{Name: c.name, OnewayUS: lat, PeakMBps: bw})
	}
	var b strings.Builder
	fmt.Fprintln(&b, "=== Table 1: performance of middleware systems with PadicoTM over Myrinet-2000 ===")
	fmt.Fprintf(&b, "%-24s %18s %22s\n", "API or middleware", "oneway latency (us)", "max bandwidth (MB/s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %18.2f %22.1f\n", r.Name, r.OnewayUS, r.PeakMBps)
	}
	return &Report{Text: b.String(), Rows: rows}
}

// ---------------------------------------------------------------------
// §5 ¶3: overheads.

// OverheadResult reports the two overhead claims.
type OverheadResult struct {
	MadIOCombinedUS float64 // MadIO-over-Madeleine one-way overhead, µs
	MadIOSeparateUS float64 // same without header combining (ablation)
	MPIPadicoUS     float64 // MPI one-way inside PadicoTM
	MPIDirectUS     float64 // MPI one-way directly over a Circuit channel
}

// madeleineBaselineUS is the measured Madeleine/GM one-way latency in
// µs (see madeleine tests: GM 5.7 incl framing + 2×1.25 Madeleine).
const madeleineBaselineUS = 8.28

// overhead measures the §4.1/§5 overhead claims.
func overhead(rn *run) *Report {
	o := OverheadResult{
		MadIOCombinedUS: madIOLatency(rn, true) - madeleineBaselineUS,
		MadIOSeparateUS: madIOLatency(rn, false) - madeleineBaselineUS,
		MPIPadicoUS:     MPIPadico().onewayUS(rn),
		MPIDirectUS:     mpiOn("mpi-direct", false).onewayUS(rn),
	}
	var b strings.Builder
	fmt.Fprintln(&b, "=== Overheads (§4.1, §5) ===")
	fmt.Fprintf(&b, "MadIO over plain Madeleine (header combining): %+.3f us  (paper: < 0.1 us)\n", o.MadIOCombinedUS)
	fmt.Fprintf(&b, "MadIO without header combining (ablation):     %+.3f us\n", o.MadIOSeparateUS)
	fmt.Fprintf(&b, "MPICH one-way inside PadicoTM:                 %.2f us\n", o.MPIPadicoUS)
	fmt.Fprintf(&b, "MPICH one-way standalone (direct Circuit):     %.2f us  (paper: roughly the same)\n", o.MPIDirectUS)
	return &Report{Text: b.String(), Rows: o}
}

// madIOLatency measures ping-pong directly at the MadIO layer (through
// a VLink it would be polluted by VLink costs). The grid builder wires
// MadIO with header combining; the ablation rewires the pair without.
func madIOLatency(rn *run, combining bool) (us float64) {
	g := grid.Cluster(2)
	myri := g.Topo.Networks()[0]
	m0, m1 := g.RT[0].MadIO[myri], g.RT[1].MadIO[myri]
	if !combining {
		m0, m1 = grid.RewireMadIONoCombining(g, 0, 1)
	}
	rn.do(scenario.Spec{Name: "madio", Testbed: g}, func(_ *scenario.Env, p *vtime.Proc) error {
		pong := vtime.NewQueue[struct{}]("pong")
		m1.Register(900, func(q *vtime.Proc, src int, in madapi.InMessage) {
			in.Unpack(1, madapi.ReceiveCheaper)
			in.EndUnpacking()
			m1.Send(src, 900, []byte{1})
		})
		m0.Register(900, func(q *vtime.Proc, src int, in madapi.InMessage) {
			in.Unpack(1, madapi.ReceiveCheaper)
			in.EndUnpacking()
			pong.Push(struct{}{})
		})
		const rounds = 256
		start := p.Now()
		for i := 0; i < rounds; i++ {
			m0.Send(1, 900, []byte{1})
			pong.Pop(p)
		}
		us = float64((p.Now().Sub(start) / (2 * rounds)).Nanoseconds()) / 1e3
		return nil
	})
	return us
}

// ---------------------------------------------------------------------
// §5 ¶4 and ¶5: the VTHD WAN and the lossy link.

// WANResult is the VTHD experiment outcome.
type WANResult struct {
	SingleMBps  float64
	StripedMBps float64
	Streams     int
}

// vlinkRate streams size bytes, chunk by chunk, over a VLink pair
// dialled with dec between the two nodes of g and returns the sink-side
// rate in bytes/s.
func vlinkRate(rn *run, name string, g *grid.Grid, dec selector.Decision, chunk []byte, size int) (rate float64) {
	rn.do(scenario.Spec{Name: name, Testbed: g}, func(env *scenario.Env, p *vtime.Proc) error {
		la, lb, err := g.DialVLinkWith(p, 0, 1, dec)
		if err != nil {
			return err
		}
		start := p.Now()
		end, err := env.Stream(p, scenario.Pipe{Write: scenario.W(la.Write), Read: lb.Read}, chunk, size, 64<<10)
		rate = float64(size) / end.Sub(start).Seconds()
		return err
	})
	return rate
}

// wan measures one TCP stream vs parallel streams across the VTHD-like
// WAN.
func wan(rn *run) *Report {
	rate := func(method string, streams, size int) float64 {
		dec := selector.Decision{Method: method, Streams: streams}
		return vlinkRate(rn, "wan/"+method, grid.TwoClusterWAN(1, 1), dec, make([]byte, 256<<10), size) / 1e6
	}
	w := WANResult{SingleMBps: rate("sysio", 1, 8<<20), StripedMBps: rate("pstreams", 4, 16<<20), Streams: 4}
	var b strings.Builder
	fmt.Fprintln(&b, "=== VTHD WAN (§5) ===")
	fmt.Fprintf(&b, "single TCP stream:        %5.1f MB/s  (paper: ~9 MB/s)\n", w.SingleMBps)
	fmt.Fprintf(&b, "parallel streams (x%d):    %5.1f MB/s  (paper: 12 MB/s, access-link cap)\n", w.Streams, w.StripedMBps)
	return &Report{Text: b.String(), Rows: w}
}

// VRPResult is the lossy-link experiment outcome.
type VRPResult struct {
	TCPKBps     float64
	VRPKBps     float64
	SkippedFrac float64
	Tolerance   float64
}

// vrpBench measures plain TCP vs VRP with 10% tolerance on the
// trans-continental lossy link.
func vrpBench(rn *run) *Report {
	res := VRPResult{Tolerance: 0.10}
	const size = 512 << 10
	tcp := selector.Decision{Method: "sysio", Streams: 1}
	res.TCPKBps = vlinkRate(rn, "vrp/tcp", grid.LossyPair(), tcp, randomPayload(1, size), size) / 1e3
	rn.do(scenario.Spec{Name: "vrp/vrp", Testbed: grid.LossyPair()}, func(env *scenario.Env, p *vtime.Proc) error {
		ua, err := env.G.Stack.Host(0).ListenUDP(7000)
		if err != nil {
			return err
		}
		ub, err := env.G.Stack.Host(1).ListenUDP(7001)
		if err != nil {
			return err
		}
		sender := vrp.New(env.G.K, ua, 1, 7001, res.Tolerance, 600e3)
		recv := vrp.New(env.G.K, ub, 0, 7000, res.Tolerance, 600e3)
		msg := make([]byte, 1200)
		nmsgs := size / len(msg)
		start := p.Now()
		for i := 0; i < nmsgs; i++ {
			sender.Send(msg)
		}
		received := 0
		for {
			if _, ok := recv.RecvTimeout(p, 2*time.Second); !ok {
				break
			}
			received++
		}
		elapsed := p.Now().Sub(start).Seconds() - 2
		res.VRPKBps = float64(received*len(msg)) / elapsed / 1e3
		res.SkippedFrac = float64(sender.Stats().Skipped) / float64(nmsgs)
		return nil
	})
	var b strings.Builder
	fmt.Fprintln(&b, "=== Lossy trans-continental link (§5) ===")
	fmt.Fprintf(&b, "TCP/IP plain sockets:    %6.0f KB/s  (paper: 150 KB/s)\n", res.TCPKBps)
	fmt.Fprintf(&b, "VRP, %2.0f%% loss allowed:  %6.0f KB/s  (paper: ~500 KB/s, i.e. 3x)\n", res.Tolerance*100, res.VRPKBps)
	fmt.Fprintf(&b, "speedup: %.1fx, skipped fraction: %.1f%%\n", res.VRPKBps/res.TCPKBps, res.SkippedFrac*100)
	return &Report{Text: b.String(), Rows: res}
}

// ---------------------------------------------------------------------
// Hot-path micro-workload: the ipstack segment path alone. Virtual-time
// results stay bit-identical across buffer-management changes;
// allocs/op and wall-clock per op are what an optimisation moves.

// TCPBulkSize is the payload of one TCPBulk run.
const TCPBulkSize = 8 << 20

// TCPBulk pushes TCPBulkSize bytes through one raw TCP connection
// across the VTHD-like WAN (no VLink on top) and returns the virtual
// bandwidth in MB/s.
func TCPBulk() (mbps float64, err error) {
	rn := &run{}
	rn.do(scenario.Spec{Name: "tcp-bulk", Testbed: grid.TwoClusterWAN(1, 1)}, func(env *scenario.Env, p *vtime.Proc) error {
		cli, srv, err := tcpPair(env.G, p)
		if err != nil {
			return err
		}
		start := p.Now()
		end, err := env.Stream(p, scenario.Pipe{Write: cli.Write, Read: srv.Read}, make([]byte, 256<<10), TCPBulkSize, 64<<10)
		mbps = TCPBulkSize / end.Sub(start).Seconds() / 1e6
		return err
	})
	return mbps, rn.err
}
