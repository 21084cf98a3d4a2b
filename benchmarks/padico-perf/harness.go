package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is what the command line fixes for one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // measuring budget when iters is 0
	iters   int     // >0: exactly this many measured iterations
	scale   float64 // multiplies every operation count (1 = the benchmark)
	traced  bool
	tmpRoot string // scratch directory for pack bundles
	outDir  string // where the traced run writes trace-<workload>.json
}

const (
	warmupIters = 2 // discarded iterations before measuring
	minIters    = 5 // a time-boxed run never measures fewer
)

// ballast keeps the collector's heap goal from riding on the few
// megabytes a testbed retains. Without it san-bulk, which allocates
// 1.4 GB per iteration over a 13 MB live heap, spends a third of its
// CPU time in the kernel re-faulting pages the runtime had just given
// back, and two processes running the same code disagree by 10 %; with
// it they agree within 2 %. It is never written, so it costs address
// space and no memory. It is part of the heap live_heap_mb reports: a
// constant 67.1 MB under every workload, which also keeps that metric
// from being the ratio of two run-time accidents on the workloads that
// retain less than a megabyte.
var ballast = make([]byte, 64<<20)

// collect leaves the heap collected and every sync.Pool empty: a pool's
// contents survive one collection in its victim cache, not two. Every
// timed section starts from this state, so whether a buffer pool hits
// never depends on what the previous iteration left behind.
func collect() {
	runtime.GC()
	runtime.GC()
}

// scaled is n operations at the run's scale, never fewer than one.
func (c *runConfig) scaled(n int) int { return max(1, int(float64(n)*c.scale+0.5)) }

// routeError reports that a workload did not take the path it names.
type routeError struct{ workload, what, got, want string }

func (e *routeError) Error() string {
	return fmt.Sprintf("route assertion failed on %s: %s is %q, want %q", e.workload, e.what, e.got, e.want)
}

// determinismError reports an exact quantity that differed between two
// iterations of one run.
type determinismError struct {
	workload, what string
	first, got     int64
	iter           int
}

func (e *determinismError) Error() string {
	return fmt.Sprintf("determinism check failed on %s: %s was %d in the first iteration and %d in iteration %d",
		e.workload, e.what, e.first, e.got, e.iter)
}

// exactCounters must repeat exactly in every iteration of a run,
// together with the virtual time of the timed section.
var exactCounters = []string{
	"vtime.events_fired", "vtime.proc_switches", "vtime.procs_spawned",
	"datagrid.bytes_moved", "store.needles_written",
}

// iter is one iteration of a workload: the workload's run function
// drives it through prep, the timed section and verification.
type iter struct {
	cfg      *runConfig
	workload string
	n        int     // index among measured iterations; negative for warm-up
	tr       *tracer // nil when harness spans are off
	hubOn    bool    // attach the telemetry hub with tracing (overhead pricing only)

	start      time.Time // start of prep
	tb         *testbed
	tmpDir     string
	timedStart time.Time
	mem0       runtime.MemStats
	counters0  map[string]int64
	sim0       int64

	// Results of the iteration.
	setupS, wallS, liveHeapMB float64
	gridBuildS                float64
	mallocs, allocBytes       uint64
	simNs                     int64
	counters                  map[string]int64   // deltas over the timed section
	observed                  map[string]float64 // per-layer values seen by the traced pass
	payloadBytes              int64              // bytes the workload asked the system to move
	hubSpans                  int                // telemetry spans finished, when hubOn

	planned, done, failed int
	fatal                 error // aborts the whole run (route assertions)
}

// tempDir is a fresh directory for this iteration, removed afterwards.
func (it *iter) tempDir() (string, error) {
	it.tmpDir = filepath.Join(it.cfg.tmpRoot, fmt.Sprintf("%s-%d", it.workload, it.n+warmupIters))
	if err := os.RemoveAll(it.tmpDir); err != nil {
		return "", err
	}
	return it.tmpDir, os.MkdirAll(it.tmpDir, 0o755)
}

// built records the testbed the iteration runs on.
func (it *iter) built(tb *testbed) *testbed {
	it.tb = tb
	it.gridBuildS = tb.buildS
	return tb
}

// assertRoute aborts the run unless got is the route the workload names.
func (it *iter) assertRoute(what, got, want string) bool {
	if got == want {
		return true
	}
	it.fatal = &routeError{it.workload, what, got, want}
	return false
}

// assertPositive aborts the run unless a counter the workload relies
// on moved. A scaled-down smoke run is let off: a twentieth of the
// traffic may well see no loss.
func (it *iter) assertPositive(what string, v int64) {
	if v <= 0 && it.fatal == nil && it.cfg.scale >= 1 {
		it.fatal = &routeError{it.workload, what, fmt.Sprint(v), "> 0"}
	}
}

// startTimed ends set-up and starts the timed section from a collected
// heap. It runs inside the root proc, after every channel is open.
func (it *iter) startTimed(planned int) {
	it.setupS = time.Since(it.start).Seconds()
	it.planned = planned
	collect()
	runtime.ReadMemStats(&it.mem0)
	it.counters0 = it.tb.counters()
	it.sim0 = it.tb.simNow()
	it.tr.beginIter(it.n, it.tb)
	it.timedStart = time.Now()
}

// endTimed closes the timed section and measures what the scenario
// retains while the testbed is still referenced.
func (it *iter) endTimed() {
	it.wallS = time.Since(it.timedStart).Seconds()
	it.tr.endIter()
	it.simNs = it.tb.simNow() - it.sim0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	it.mallocs = m.Mallocs - it.mem0.Mallocs
	it.allocBytes = m.TotalAlloc - it.mem0.TotalAlloc
	it.counters = it.tb.counters()
	for k, v := range it.counters0 {
		// Channels are opened during set-up: the session manager's
		// counters are reported for the whole iteration.
		if !strings.HasPrefix(k, "session.") {
			it.counters[k] -= v
		}
	}
	collect()
	runtime.ReadMemStats(&m)
	it.liveHeapMB = float64(m.HeapAlloc) / 1e6
}

// check counts one operation: ok means it returned no error and its
// payload matched.
func (it *iter) check(ok bool) {
	if ok {
		it.done++
	} else {
		it.failed++
	}
}

// phase runs body inside a span around a group of calls into one layer
// and returns the span's duration in ns, 0 when spans are off.
func (it *iter) phase(layer, name string, body func()) float64 {
	if !it.tr.phase(layer, name) {
		body()
		return 0
	}
	body()
	return it.tr.endPhase()
}

// observe records a per-layer value seen in a traced iteration.
func (it *iter) observe(name string, v float64) {
	if it.tr == nil {
		return
	}
	if it.observed == nil {
		it.observed = make(map[string]float64)
	}
	it.observed[name] = v
}

// finish accounts for a kernel failure: every operation the iteration
// planned and did not complete counts as failed.
func (it *iter) finish(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: iteration %d: %v\n", it.workload, it.n, err)
		if !kernelFailure(err) && it.fatal == nil {
			it.fatal = err
		}
	}
	if rest := it.planned - it.done - it.failed; rest > 0 {
		it.failed += rest
	}
	if it.tmpDir != "" {
		os.RemoveAll(it.tmpDir)
	}
}

// samples accumulates the measured iterations of one pass.
type samples struct {
	setup, wall, liveHeap, gridBuild []float64
	mallocs, allocBytes              float64
	simNs                            int64
	counters                         map[string][]float64
	observed                         map[string][]float64
	payloadBytes                     int64
	attempted, failed                int
}

func (s *samples) add(it *iter) {
	s.setup = append(s.setup, it.setupS)
	s.wall = append(s.wall, it.wallS)
	s.liveHeap = append(s.liveHeap, it.liveHeapMB)
	s.gridBuild = append(s.gridBuild, it.gridBuildS)
	s.mallocs += float64(it.mallocs)
	s.allocBytes += float64(it.allocBytes)
	s.simNs = it.simNs
	s.payloadBytes = it.payloadBytes
	if s.counters == nil {
		s.counters = make(map[string][]float64)
		s.observed = make(map[string][]float64)
	}
	for k, v := range it.counters {
		s.counters[k] = append(s.counters[k], float64(v))
	}
	for k, v := range it.observed {
		s.observed[k] = append(s.observed[k], v)
	}
	s.attempted += it.planned
	s.failed += it.failed
}

func (s *samples) n() int { return len(s.wall) }

// runner runs the iterations of one workload and checks that the exact
// quantities repeat.
type runner struct {
	w     *workload
	cfg   *runConfig
	first *iter // first iteration of the run, the determinism reference
	count int   // iterations run so far, warm-up included
}

// one runs a single iteration, traced or not, and checks it against
// the first of the run.
func (r *runner) one(n int, tr *tracer) (*iter, error) {
	it := &iter{cfg: r.cfg, workload: r.w.name, n: n, tr: tr, start: time.Now()}
	r.w.run(it)
	r.count++
	if it.fatal != nil {
		return nil, it.fatal
	}
	if it.counters == nil {
		return nil, fmt.Errorf("%s: iteration %d never reached its timed section", r.w.name, n)
	}
	if r.first == nil {
		r.first = it
		return it, nil
	}
	if it.simNs != r.first.simNs {
		return nil, &determinismError{r.w.name, "sim_s (virtual ns)", r.first.simNs, it.simNs, r.count}
	}
	for _, name := range exactCounters {
		if it.counters[name] != r.first.counters[name] {
			return nil, &determinismError{r.w.name, name, r.first.counters[name], it.counters[name], r.count}
		}
	}
	return it, nil
}

// enough reports whether a pass that has measured n iterations is over:
// at exactly cfg.iters of them, or else once the deadline has passed and
// the minimum is in.
func (r *runner) enough(n int, deadline time.Time) bool {
	if r.cfg.iters > 0 {
		return n == r.cfg.iters
	}
	return n >= minIters && time.Now().After(deadline)
}

// budget is the instant a pass given share of the run's seconds ends.
func (r *runner) budget(share float64) time.Time {
	return time.Now().Add(time.Duration(r.cfg.seconds * share * float64(time.Second)))
}

// measure is the untraced pass: warm-up, then measured iterations until
// the budget is spent (or exactly cfg.iters of them).
func (r *runner) measure() (*samples, error) {
	deadline := r.budget(1)
	s := &samples{}
	for n := -warmupIters; ; n++ {
		it, err := r.one(n, nil)
		if err != nil {
			return nil, err
		}
		if n < 0 {
			continue
		}
		s.add(it)
		if r.enough(s.n(), deadline) {
			return s, nil
		}
	}
}

// measureTraced alternates untraced and traced iterations, so that the
// two medians compare like with like, for about half the budget; the
// ladder gets the rest.
func (r *runner) measureTraced(tr *tracer) (plain, traced *samples, err error) {
	deadline := r.budget(0.5)
	plain, traced = &samples{}, &samples{}
	for n := -warmupIters; ; n++ {
		it, err := r.one(n, nil)
		if err != nil {
			return nil, nil, err
		}
		if n < 0 {
			continue
		}
		plain.add(it)
		if it, err = r.one(n, tr); err != nil {
			return nil, nil, err
		}
		traced.add(it)
		if r.enough(traced.n(), deadline) {
			return plain, traced, nil
		}
	}
}
