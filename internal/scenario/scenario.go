// Package scenario is the one harness under every experiment: it
// builds a simulated environment from a declarative Spec in the one
// legal order, attaches observers to it, runs a scenario body on the
// kernel and returns errors instead of panicking, and cleans up.
// Scenario bodies stay Go closures (internal/bench holds them); only
// the environment and its observers are data.
package scenario

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"padico/internal/datagrid"
	"padico/internal/faults"
	"padico/internal/grid"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
	"padico/internal/weather"
)

// Spec declares an environment. New builds it in field order below the
// testbed, which is the only order that works: the weather service
// feeds the data grid, the ring restricts it, the detector drives it.
type Spec struct {
	// Name prefixes every error of the environment.
	Name string
	// Testbed is the fabric (grid.Cluster, grid.DegradingWAN, ...),
	// fresh: a kernel runs once.
	Testbed *grid.Grid
	// Weather starts the network-weather service.
	Weather bool
	// DataGrid, when set, layers a data grid with this configuration.
	DataGrid *datagrid.Config
	// Pack stores replicas on durable pack engines in a temporary
	// directory that Run removes.
	Pack bool
	// RingSites restricts placement to the nodes of these sites.
	RingSites []string
	// DetectEvery, when positive, runs a failure detector at this sweep
	// interval and hands its transitions to the data grid.
	DetectEvery time.Duration
}

// Observers selects what watches an environment. The zero value
// observes nothing and attaches no telemetry hub, so a plain run pays
// for none of it; any observer attaches the hub before the first
// observed layer is built.
type Observers struct {
	Trace  bool                  // span tracing on
	Sample time.Duration         // > 0: metric sampler at this cadence
	SLO    []telemetry.Objective // non-empty: burn-rate monitor
}

func (o Observers) any() bool { return o.Trace || o.Sample > 0 || len(o.SLO) > 0 }

// Env is a built environment. Fields a Spec did not ask for are nil.
type Env struct {
	Name    string
	G       *grid.Grid
	Weather *weather.Service
	DG      *datagrid.DataGrid
	// DetectedAt is the instant of the detector's first down transition
	// (zero until then).
	DetectedAt vtime.Time

	Hub     *telemetry.Hub
	Sampler *telemetry.Sampler
	Monitor *telemetry.SLOMonitor

	inj   *faults.Injector
	dir   string
	built bool
}

// New builds the environment spec declares, observed by obs.
func New(spec Spec, obs Observers) (*Env, error) {
	e := &Env{Name: spec.Name, G: spec.Testbed}
	if err := e.Observe(obs); err != nil {
		return nil, err
	}
	e.built = true
	if spec.Weather {
		e.Weather = e.G.EnableWeather()
	}
	if spec.DataGrid != nil {
		cfg := *spec.DataGrid
		if spec.Pack {
			dir, err := os.MkdirTemp("", "padico-scenario-*")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			e.dir = dir
			cfg.Engine = store.PackFactory(dir, store.PackConfig{})
		}
		e.DG = e.G.NewDataGrid(cfg)
		if spec.RingSites != nil {
			e.DG.SetRing(siteRing(e.G.Topo, spec.RingSites))
		}
	}
	if spec.DetectEvery > 0 && e.DG != nil {
		faults.NewDetector(e.Injector(), spec.DetectEvery, func(n topology.NodeID, down bool) {
			if down && e.DetectedAt == 0 {
				e.DetectedAt = e.G.K.Now()
			}
			e.DG.NodeStateChanged(n, down)
		}).Start()
	}
	// Samplers and monitors start last: they spawn daemons, and the
	// spawn order of daemons is part of the deterministic schedule.
	if len(obs.SLO) > 0 {
		e.Monitor = telemetry.NewSLOMonitor(e.Hub, 0, obs.SLO...)
		e.Monitor.Start()
	}
	if obs.Sample > 0 {
		e.Sampler = e.Hub.StartSampler(vtime.Duration(obs.Sample))
	}
	return e, nil
}

// Injector returns the environment's fault injector, made on first use
// (after the hub, so fault instants land in the flight ring and trace).
func (e *Env) Injector() *faults.Injector {
	if e.inj == nil {
		e.inj = faults.NewInjector(e.G)
	}
	return e.inj
}

// Observe attaches the telemetry hub obs needs. Layers discover the hub
// when they are constructed, so it must come first: asking once the
// environment is built is an error, not a silently empty trace.
func (e *Env) Observe(obs Observers) error {
	if !obs.any() {
		return nil
	}
	if e.built {
		return fmt.Errorf("%s: observers requested after the layers were built", e.Name)
	}
	e.Hub = e.G.Telemetry()
	if obs.Trace {
		e.Hub.EnableTracing()
	}
	return nil
}

// siteRing places on the nodes of the named sites only, each zoned by
// its site.
func siteRing(topo *topology.Grid, sites []string) *datagrid.Ring {
	ring := datagrid.NewRing(0)
	for _, site := range sites {
		for _, n := range topo.Nodes() {
			if n.Site == site {
				ring.Add(n.ID, site)
			}
		}
	}
	return ring
}

// Run executes body as the root proc of the environment's kernel and
// then closes the environment (engines flushed, pack directory gone).
// A proc panic or a deadlock comes back as the kernel's *PanicError or
// *DeadlockError, a failing step as the body's own error, each prefixed
// with the scenario name. An environment runs once.
func (e *Env) Run(body func(p *vtime.Proc) error) error {
	var err error
	if kerr := e.G.K.Run(func(p *vtime.Proc) { err = body(p) }); kerr != nil {
		err = kerr
	}
	if e.DG != nil {
		if cerr := e.DG.Close(); err == nil {
			err = cerr
		}
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", e.Name, err)
	}
	return nil
}

// ---------------------------------------------------------------------
// Steps every scenario body shares.

// SleepUntil parks p until virtual instant t (no-op if already past).
func SleepUntil(p *vtime.Proc, t vtime.Time) {
	if now := p.Now(); now < t {
		p.Sleep(t.Sub(now))
	}
}

// At is the virtual instant d after the start of the run.
func At(d time.Duration) vtime.Time { return vtime.Time(0).Add(d) }

// Set is an indexed object set: N objects "<Prefix>-<i>", all holding
// Data, object i entering or leaving the grid at node i mod Clients.
type Set struct {
	Prefix  string
	N       int
	Clients int
	Data    []byte
}

func (s Set) name(i int) string { return fmt.Sprintf("%s-%d", s.Prefix, i) }

// Put stores the set, sleeping gap after each object.
func (e *Env) Put(p *vtime.Proc, s Set, gap time.Duration) error {
	for i := 0; i < s.N; i++ {
		if err := e.DG.Put(p, topology.NodeID(i%s.Clients), s.name(i), s.Data); err != nil {
			return err
		}
		if gap > 0 {
			p.Sleep(gap)
		}
	}
	return nil
}

// Get reads the set back, object i from node (i+shift) mod Clients,
// and checks every byte.
func (e *Env) Get(p *vtime.Proc, s Set, shift int) error {
	for i := 0; i < s.N; i++ {
		got, err := e.DG.Get(p, topology.NodeID((i+shift)%s.Clients), s.name(i))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, s.Data) {
			return fmt.Errorf("get %s: payload corrupted", s.name(i))
		}
	}
	return nil
}

// Verify checks every object of the set at its full replica set.
func (e *Env) Verify(s Set) error {
	for i := 0; i < s.N; i++ {
		if err := e.DG.VerifyReplicas(s.name(i)); err != nil {
			return err
		}
	}
	return nil
}

// Pipe is the two ends of a byte stream, as plain functions so TCP
// connections, VLinks and session channels all fit.
type Pipe struct {
	Write func(p *vtime.Proc, b []byte) error
	Read  func(p *vtime.Proc, b []byte) (int, error)
}

// W adapts the (int, error) Write of VLinks and session channels.
func W(write func(*vtime.Proc, []byte) (int, error)) func(*vtime.Proc, []byte) error {
	return func(p *vtime.Proc, b []byte) error {
		_, err := write(p, b)
		return err
	}
}

// Stream writes total bytes from p — chunk over and over, the last
// write cut short — while a sink proc drains the other end with
// rbuf-sized reads and checks every byte against the repeating chunk.
// It returns the instant the sink held the last byte.
func (e *Env) Stream(p *vtime.Proc, pipe Pipe, chunk []byte, total, rbuf int) (vtime.Time, error) {
	var end vtime.Time
	var sinkErr error
	done := vtime.NewWaitGroup("stream")
	done.Add(1)
	e.G.K.Go("sink", func(q *vtime.Proc) {
		defer done.Done()
		buf := make([]byte, rbuf)
		for got := 0; got < total; {
			n, err := pipe.Read(q, buf[:min(rbuf, total-got)])
			for i := 0; i < n; {
				at := got % len(chunk)
				k := min(n-i, len(chunk)-at)
				if !bytes.Equal(buf[i:i+k], chunk[at:at+k]) {
					sinkErr = fmt.Errorf("stream corrupted in bytes [%d,%d)", got, got+k)
					return
				}
				i, got = i+k, got+k
			}
			if err != nil && got < total {
				sinkErr = fmt.Errorf("stream ended after %d of %d bytes: %w", got, total, err)
				return
			}
		}
		end = q.Now()
	})
	var err error
	for off := 0; off < total && err == nil; off += len(chunk) {
		err = pipe.Write(p, chunk[:min(len(chunk), total-off)])
	}
	done.Wait(p)
	if err == nil {
		err = sinkErr
	}
	return end, err
}
