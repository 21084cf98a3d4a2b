// Metrics registry: named counters, gauges, and fixed-bucket
// virtual-time histograms with a deterministic sorted snapshot.
//
// The registry is the unification point for the per-layer Stats structs
// (datagrid, session, group, weather, vrp): each layer keeps its struct
// of atomically-bumped int64 fields for cheap hot-path accounting and
// *binds* it into the registry (BindStruct), which walks the fields
// with reflection only at Snapshot time — registration itself is one
// slice append, so attaching telemetry adds no per-operation work and
// near-zero setup allocations.
package telemetry

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"padico/internal/vtime"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (disabled telemetry) and safe for concurrent use.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// defaultBuckets is a 1-2-5 exponential ladder from 1 µs to 100 s —
// wide enough for NIC-level latencies and WAN-scale transfer times in
// the same histogram.
var defaultBuckets = func() []vtime.Duration {
	var b []vtime.Duration
	for mag := vtime.Duration(1000); mag <= 100e9; mag *= 10 {
		for _, m := range []vtime.Duration{1, 2, 5} {
			if d := m * mag; d <= 100e9 {
				b = append(b, d)
			}
		}
	}
	return b
}()

// Histogram is a fixed-bucket virtual-time histogram. Buckets are
// upper bounds; one implicit overflow bucket catches the rest.
// Observations are atomic adds — no allocation, no lock.
type Histogram struct {
	bounds []vtime.Duration
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64   // ns
	n      int64
	max    int64 // ns, CAS-maintained
}

func newHistogram(bounds []vtime.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = defaultBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d vtime.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	atomic.AddInt64(&h.n, 1)
	atomic.AddInt64(&h.sum, int64(d))
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	atomic.AddInt64(&h.counts[i], 1)
	for {
		m := atomic.LoadInt64(&h.max)
		if int64(d) <= m || atomic.CompareAndSwapInt64(&h.max, m, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.n)
}

// Sum returns the total observed virtual time.
func (h *Histogram) Sum() vtime.Duration {
	if h == nil {
		return 0
	}
	return vtime.Duration(atomic.LoadInt64(&h.sum))
}

// Quantile returns a deterministic estimate of the q-quantile: the
// upper bound of the bucket holding the q-ranked observation. The
// overflow bucket reports the maximum observed value, so p99/p100 stay
// honest for outliers beyond the ladder.
func (h *Histogram) Quantile(q float64) vtime.Duration {
	if h == nil {
		return 0
	}
	n := atomic.LoadInt64(&h.n)
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range h.counts {
		cum += atomic.LoadInt64(&h.counts[i])
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return vtime.Duration(atomic.LoadInt64(&h.max))
		}
	}
	return vtime.Duration(atomic.LoadInt64(&h.max))
}

// CountAtMost returns how many observations fell in buckets whose upper
// bound is <= d — the "good events" count for a latency SLO with
// threshold d. The threshold is effectively rounded down to a bucket
// boundary of the 1-2-5 ladder; declare objectives on ladder values
// (1ms, 2ms, 5ms, ...) for exact semantics.
func (h *Histogram) CountAtMost(d vtime.Duration) int64 {
	if h == nil {
		return 0
	}
	var cum int64
	for i, b := range h.bounds {
		if b > d {
			break
		}
		cum += atomic.LoadInt64(&h.counts[i])
	}
	return cum
}

// Kind discriminates snapshot entries.
type Kind int

// Snapshot metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Metric is one row of a registry snapshot.
type Metric struct {
	Name  string
	Kind  Kind
	Value int64 // counter or gauge value
	// Histogram-only fields.
	Count    int64
	Sum      vtime.Duration
	P50, P99 vtime.Duration
}

// boundStruct defers reflection over a layer's Stats struct to
// Snapshot time: registering costs one append, reading is cold-path.
type boundStruct struct {
	prefix string
	v      reflect.Value // struct value (addressable)
}

// Registry holds named metrics. Creation methods are idempotent on the
// name; Snapshot returns every metric sorted by name. All methods are
// nil-receiver-safe so layers can instrument unconditionally.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	hists     map[string]*Histogram
	funcs     map[string][]func() int64
	gaugeFns  map[string][]func() int64
	volatiles map[string]bool
	bound     []boundStruct
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		hists:     make(map[string]*Histogram),
		funcs:     make(map[string][]func() int64),
		gaugeFns:  make(map[string][]func() int64),
		volatiles: make(map[string]bool),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the default
// 1-2-5 µs..100s bucket ladder on first use.
func (r *Registry) Histogram(name string, bounds ...vtime.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers an externally-stored counter read through fn at
// snapshot time. Multiple registrations under one name sum — several
// instances of a layer (two VRP endpoints, several groups) aggregate
// naturally.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = append(r.funcs[name], fn)
}

// GaugeFunc registers an externally-stored gauge read through fn at
// snapshot time — the instrumentation shape for state a layer already
// maintains (queue depths, live-channel counts, dirty bytes), so no
// hot path has to push a value on every mutation. Multiple registrations under one name sum, so per-node
// instances (store engines, sessions) aggregate naturally.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = append(r.gaugeFns[name], fn)
}

// MarkVolatile flags metric names whose values depend on wall-clock
// effects outside the simulation (GC-driven sync.Pool hit rates, for
// example). Volatile metrics stay visible in snapshots and Prometheus
// exposition but are excluded from the deterministic series sampler,
// which is pinned bit-identical across runs.
func (r *Registry) MarkVolatile(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		r.volatiles[n] = true
	}
}

// Volatile reports whether name was flagged by MarkVolatile.
func (r *Registry) Volatile(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.volatiles[name]
}

// BindStruct registers every int64 field of the struct pointed to by s
// as a counter named prefix.snake_case(field). A `metric:"name"` field
// tag overrides the derived name; `metric:"-"` skips the field. Fields
// are read with atomic loads at snapshot time, so structs bumped via
// atomic.AddInt64 from kernel procs snapshot race-free. Binding from
// several instances under the same prefix aggregates (sums) like
// CounterFunc.
func (r *Registry) BindStruct(prefix string, s any) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(s)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("telemetry: BindStruct wants *struct, got %T", s))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bound = append(r.bound, boundStruct{prefix: prefix, v: v.Elem()})
}

// snakeCase converts a Go field name to a metric name component:
// "CircuitOpens" -> "circuit_opens", "WANBytes" -> "wan_bytes".
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, c := range rs {
		if c >= 'A' && c <= 'Z' {
			prevLower := i > 0 && (rs[i-1] >= 'a' && rs[i-1] <= 'z' || rs[i-1] >= '0' && rs[i-1] <= '9')
			nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteRune(c)
	}
	return b.String()
}

// Value returns the summed value of the named counter across direct
// counters, counter funcs and bound-struct fields — the same total the
// snapshot would report, read for one name (the SLO monitor's tick
// path). Unknown names read 0.
func (r *Registry) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum int64
	if c := r.counters[name]; c != nil {
		sum += c.Value()
	}
	for _, fn := range r.funcs[name] {
		sum += fn()
	}
	for _, bs := range r.bound {
		if !strings.HasPrefix(name, bs.prefix) || len(name) <= len(bs.prefix) || name[len(bs.prefix)] != '.' {
			continue
		}
		want := name[len(bs.prefix)+1:]
		t := bs.v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Type.Kind() != reflect.Int64 || !f.IsExported() {
				continue
			}
			fname := snakeCase(f.Name)
			if tag, ok := f.Tag.Lookup("metric"); ok {
				if tag == "-" {
					continue
				}
				fname = tag
			}
			if fname == want {
				sum += atomic.LoadInt64(bs.v.Field(i).Addr().Interface().(*int64))
			}
		}
	}
	return sum
}

// Snapshot returns every registered metric sorted by name. Histogram
// rows carry count/sum/p50/p99. The result is deterministic: map
// iteration order is erased by the sort, and every value is read
// atomically.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sums := make(map[string]int64)
	for name, c := range r.counters {
		sums[name] += c.Value()
	}
	for name, fns := range r.funcs {
		for _, fn := range fns {
			sums[name] += fn()
		}
	}
	for _, bs := range r.bound {
		t := bs.v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Type.Kind() != reflect.Int64 || !f.IsExported() {
				continue
			}
			name := snakeCase(f.Name)
			if tag, ok := f.Tag.Lookup("metric"); ok {
				if tag == "-" {
					continue
				}
				name = tag
			}
			addr := bs.v.Field(i).Addr().Interface().(*int64)
			sums[bs.prefix+"."+name] += atomic.LoadInt64(addr)
		}
	}
	gaugeSums := make(map[string]int64, len(r.gaugeFns))
	for name, fns := range r.gaugeFns {
		for _, fn := range fns {
			gaugeSums[name] += fn()
		}
	}
	out := make([]Metric, 0, len(sums)+len(gaugeSums)+len(r.hists))
	for name, v := range sums {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: v})
	}
	for name, v := range gaugeSums {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: v})
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Kind: KindHistogram,
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FormatSnapshot renders a snapshot as an aligned text table.
func FormatSnapshot(ms []Metric) string {
	var b strings.Builder
	width := 0
	for _, m := range ms {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range ms {
		switch m.Kind {
		case KindHistogram:
			fmt.Fprintf(&b, "%-*s  n=%d p50=%v p99=%v sum=%v\n",
				width, m.Name, m.Count, m.P50, m.P99, m.Sum)
		default:
			fmt.Fprintf(&b, "%-*s  %d\n", width, m.Name, m.Value)
		}
	}
	return b.String()
}
