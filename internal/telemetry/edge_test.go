package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"padico/internal/vtime"
)

// TestWriteTraceWithOpenSpans pins the export contract for spans still
// open at export time: the trace is valid JSON without them (a span
// only reaches the record table on End), and ending them later makes
// them appear in the next export.
func TestWriteTraceWithOpenSpans(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	h.EnableTracing()
	if err := k.Run(func(p *vtime.Proc) {
		open := h.Begin("test", "still-open", 0)
		h.Begin("test", "closed", 0).End()

		var buf bytes.Buffer
		if err := h.WriteTrace(&buf); err != nil {
			t.Fatalf("mid-run export: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("export with an open span is not valid JSON:\n%s", buf.Bytes())
		}
		if bytes.Contains(buf.Bytes(), []byte("still-open")) {
			t.Error("open span leaked into the export before End")
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"closed"`)) {
			t.Error("finished span missing from the export")
		}

		p.Sleep(time.Millisecond)
		open.End()
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	js := h.TraceJSON()
	if !json.Valid(js) {
		t.Fatalf("final export invalid:\n%s", js)
	}
	if !bytes.Contains(js, []byte("still-open")) {
		t.Error("span missing from the export after End")
	}
}

// TestHistogramQuantileEdges pins the quantile and CountAtMost
// behaviour on empty and single-observation histograms.
func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram(nil)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram q%v = %v, want 0", q, got)
		}
	}
	if got := h.CountAtMost(time.Second); got != 0 {
		t.Errorf("empty CountAtMost = %d, want 0", got)
	}
	h.Observe(30 * time.Microsecond)
	if got := h.CountAtMost(0); got != 0 {
		t.Errorf("CountAtMost(0) = %d, want 0", got)
	}
	if got := h.CountAtMost(50 * time.Microsecond); got != 1 {
		t.Errorf("CountAtMost(50µs) = %d, want 1 (bucket bound)", got)
	}
	if got := h.CountAtMost(time.Hour); got != 1 {
		t.Errorf("CountAtMost(1h) = %d, want 1", got)
	}
}

// TestFormatSnapshotConcurrent hammers a registry's counters from real
// goroutines while snapshots are taken: under -race this pins the
// atomic access contract, and after the writers drain, two snapshots
// must format identically.
func TestFormatSnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc.ops")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if snap := r.Snapshot(); len(snap) == 0 {
			t.Fatal("empty snapshot while writers run")
		}
	}
	wg.Wait()
	a, b := FormatSnapshot(r.Snapshot()), FormatSnapshot(r.Snapshot())
	if a != b {
		t.Fatalf("snapshots differ after writers drained:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "conc.ops") || !strings.Contains(a, "4000") {
		t.Errorf("final snapshot missing the settled counter:\n%s", a)
	}
}

// TestSetDumpLimit pins the dump cap: a hub emits two full dumps per
// run, and later ones print a one-line notice.
func TestSetDumpLimit(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	var buf bytes.Buffer
	h.SetFlightSink(&buf)
	k.Run(func(p *vtime.Proc) {
		h.Note("test", "tick", 0, 1, 0)
		for i := 0; i < 5; i++ {
			h.DumpFlight("drill")
		}
	})
	full := strings.Count(buf.String(), "=== flight recorder dump")
	supp := strings.Count(buf.String(), "flight dump suppressed")
	if full != 2 || supp != 3 {
		t.Errorf("default cap: %d full + %d suppressed, want 2 + 3", full, supp)
	}
}

// TestCtxWireRoundTrip pins the trace-context wire encoding.
func TestCtxWireRoundTrip(t *testing.T) {
	for _, c := range []Ctx{{}, {Trace: 1, Span: 2}, {Trace: 1<<62 + 7, Span: 1<<61 + 3}} {
		b := EncodeCtx(c)
		if len(b) != CtxWireLen {
			t.Fatalf("encoded length %d, want %d", len(b), CtxWireLen)
		}
		if got := DecodeCtx(b); got != c {
			t.Errorf("round trip %+v -> %+v", c, got)
		}
	}
	if got := DecodeCtx([]byte{1, 2}); !got.Zero() {
		t.Errorf("short buffer decoded to %+v, want zero", got)
	}
}

// TestSpanEnterExit pins the ambient-context idiom: Begin adopts the
// current context as parent, Enter installs the span as the ambient
// parent, Exit restores what Enter displaced.
func TestSpanEnterExit(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	h.EnableTracing()
	if err := k.Run(func(p *vtime.Proc) {
		root := h.Begin("test", "root", 0)
		prev := root.Enter()
		if cur := h.Cur(); cur.Span != root.Ctx().Span || cur.Trace != root.Ctx().Trace {
			t.Errorf("Enter did not install the span: cur %+v, span %+v", cur, root.Ctx())
		}
		child := h.Begin("test", "child", 0)
		child.End()
		root.Exit(prev)
		if !h.Cur().Zero() {
			t.Errorf("Exit did not restore the empty ambient context: %+v", h.Cur())
		}
		orphan := h.Begin("test", "orphan", 0)
		orphan.End()
		root.End()
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	spans := h.Spans()
	byName := map[string]SpanInfo{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	root, child, orphan := byName["root"], byName["child"], byName["orphan"]
	if child.Parent != root.ID || child.Trace != root.Trace {
		t.Errorf("child not adopted: %+v vs root %+v", child, root)
	}
	if orphan.Parent != 0 || orphan.Trace != orphan.ID {
		t.Errorf("orphan should be its own root: %+v", orphan)
	}
}
