package telemetry

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"padico/internal/vtime"
)

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram(nil)
	// 99 fast observations and one slow outlier.
	for i := 0; i < 99; i++ {
		h.Observe(30 * time.Microsecond)
	}
	h.Observe(3 * time.Second)
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Quantile(0.50); got != 50*time.Microsecond {
		t.Errorf("p50 = %v, want 50µs (bucket upper bound of 30µs)", got)
	}
	if got := h.Quantile(0.99); got != 50*time.Microsecond {
		t.Errorf("p99 = %v, want 50µs (99 of 100 below)", got)
	}
	if got := h.Quantile(1.0); got != 5*time.Second {
		t.Errorf("p100 = %v, want 5s bucket bound", got)
	}
	wantSum := 99*30*time.Microsecond + 3*time.Second
	if got := h.Sum(); got != wantSum {
		t.Errorf("sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramOverflowReportsMax(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(500 * time.Second) // beyond the 100s ladder
	if got := h.Quantile(0.99); got != 500*time.Second {
		t.Errorf("overflow p99 = %v, want observed max 500s", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(nil)
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta.ops").Add(3)
	r.Counter("alpha.ops").Add(1)
	r.GaugeFunc("mid.depth", func() int64 { return 7 })
	r.Histogram("beta.lat").Observe(time.Millisecond)
	s1 := r.Snapshot()
	if !sort.SliceIsSorted(s1, func(i, j int) bool { return s1[i].Name < s1[j].Name }) {
		t.Fatalf("snapshot not sorted: %+v", s1)
	}
	names := []string{}
	for _, m := range s1 {
		names = append(names, m.Name)
	}
	want := []string{"alpha.ops", "beta.lat", "mid.depth", "zeta.ops"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	s2 := r.Snapshot()
	if FormatSnapshot(s1) != FormatSnapshot(s2) {
		t.Error("repeated snapshots differ")
	}
}

func TestCounterFuncAggregates(t *testing.T) {
	r := NewRegistry()
	a, b := int64(2), int64(5)
	r.CounterFunc("vrp.sent", func() int64 { return a })
	r.CounterFunc("vrp.sent", func() int64 { return b })
	s := r.Snapshot()
	if len(s) != 1 || s[0].Value != 7 {
		t.Fatalf("snapshot = %+v, want single vrp.sent=7", s)
	}
}

func TestBindStruct(t *testing.T) {
	type stats struct {
		Opens          int64
		WANBytes       int64
		VLinkTransfers int64 `metric:"vlink_transfers"`
		Hidden         int64 `metric:"-"`
		NotAMetric     string
	}
	var st stats
	atomic.AddInt64(&st.Opens, 4)
	atomic.AddInt64(&st.WANBytes, 1024)
	atomic.AddInt64(&st.VLinkTransfers, 2)
	st.Hidden = 99
	r := NewRegistry()
	r.BindStruct("session", &st)
	got := map[string]int64{}
	for _, m := range r.Snapshot() {
		got[m.Name] = m.Value
	}
	want := map[string]int64{"session.opens": 4, "session.wan_bytes": 1024, "session.vlink_transfers": 2}
	if len(got) != len(want) {
		t.Fatalf("snapshot names = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
	// Second instance under the same prefix aggregates.
	var st2 stats
	st2.Opens = 6
	r.BindStruct("session", &st2)
	for _, m := range r.Snapshot() {
		if m.Name == "session.opens" && m.Value != 10 {
			t.Errorf("aggregated opens = %d, want 10", m.Value)
		}
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Opens":         "opens",
		"CircuitOpens":  "circuit_opens",
		"WANBytes":      "wan_bytes",
		"Puts":          "puts",
		"TreeRebuilds":  "tree_rebuilds",
		"PassiveRTT":    "passive_rtt",
		"Retransmitted": "retransmitted",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// traceFixture runs a tiny deterministic workload with tracing on and
// returns the hub.
func traceFixture(t *testing.T) *Hub {
	t.Helper()
	k := vtime.NewKernel()
	h := Attach(k)
	h.EnableTracing()
	err := k.Run(func(p *vtime.Proc) {
		root := h.Begin("test", "outer", 0).I64("bytes", 4096)
		p.Sleep(2 * time.Millisecond)
		child := h.Begin("test", "inner", 1).Parent(root).Str("via", "vlink")
		p.Sleep(500 * time.Microsecond)
		child.End()
		h.Instant("test", "mark", 1).End()
		root.End()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return h
}

func TestTraceJSONValidAndLinked(t *testing.T) {
	h := traceFixture(t)
	js := h.TraceJSON()
	if !json.Valid(js) {
		t.Fatalf("invalid JSON:\n%s", js)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Tid  int             `json:"tid"`
			Ts   json.Number     `json:"ts"`
			Dur  json.Number     `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	byName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
	}
	for _, want := range []string{"outer", "inner", "mark", "thread_name", "process_name"} {
		if byName[want] == 0 {
			t.Errorf("missing event %q", want)
		}
	}
	spans := h.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: inner, mark, outer.
	if spans[0].Name != "inner" || spans[2].Name != "outer" {
		t.Errorf("span order = %s,%s,%s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].Parent != spans[2].ID {
		t.Errorf("inner.parent = %d, want outer id %d", spans[0].Parent, spans[2].ID)
	}
	if spans[2].Dur != 2500*time.Microsecond {
		t.Errorf("outer dur = %v, want 2.5ms", spans[2].Dur)
	}
	if !spans[1].Instant {
		t.Error("mark should be an instant")
	}
}

func TestTraceByteIdentical(t *testing.T) {
	a := traceFixture(t).TraceJSON()
	b := traceFixture(t).TraceJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSON differs across identical runs")
	}
}

func TestSpanPoolRecycles(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	h.EnableTracing()
	k.Run(func(p *vtime.Proc) {
		s1 := h.Begin("t", "a", 0)
		s1.End()
		s2 := h.Begin("t", "b", 0)
		if s1 != s2 {
			t.Error("span handle not recycled from free list")
		}
		s2.End()
	})
}

func TestNilSafety(t *testing.T) {
	var h *Hub
	h.EnableTracing()
	h.Begin("x", "y", 0).I64("a", 1).Str("b", "c").Parent(nil).End()
	h.Instant("x", "y", 0).End()
	h.Note("c", "m", 0, 0, 0)
	h.DumpFlight("nope")
	h.KernelFailure(nil)
	if h.Registry() != nil || h.Spans() != nil || h.TraceJSON() != nil || h.Tracing() {
		t.Error("nil hub must be inert")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.GaugeFunc("x", nil)
	r.Histogram("x").Observe(1)
	r.CounterFunc("x", nil)
	r.BindStruct("x", &struct{}{})
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
}

func TestFlightRingWraps(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	k.Run(func(p *vtime.Proc) {
		for i := 0; i < flightRing+10; i++ {
			h.Note("test", "tick", i, int64(i), 0)
			p.Sleep(time.Millisecond)
		}
	})
	evs := h.Flight()
	if len(evs) != flightRing {
		t.Fatalf("ring holds %d, want %d", len(evs), flightRing)
	}
	if evs[0].V1 != 10 || evs[len(evs)-1].V1 != int64(flightRing+9) {
		t.Errorf("ring window [%d..%d], want [10..%d]", evs[0].V1, evs[len(evs)-1].V1, flightRing+9)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("flight events out of order")
		}
	}
}

func TestFlightDumpOnKernelFailure(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	var buf bytes.Buffer
	h.SetFlightSink(&buf)
	k.Run(func(p *vtime.Proc) {
		h.Note("test", "about to hang", 3, 42, 0)
		vtime.NewQueue[int]("never").Pop(p) // deadlock
	})
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("flight recorder dump")) {
		t.Fatalf("no dump on kernel failure:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("about to hang")) {
		t.Fatalf("dump missing noted event:\n%s", out)
	}
}

func TestAttachIdempotent(t *testing.T) {
	k := vtime.NewKernel()
	if Attach(k) != Attach(k) {
		t.Error("Attach must return the existing hub")
	}
	if For(k) == nil {
		t.Error("For must find the attached hub")
	}
	if For(vtime.NewKernel()) != nil {
		t.Error("For on a bare kernel must be nil")
	}
}
