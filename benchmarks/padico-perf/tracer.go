package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the harness made into a layer's public function, or
// a phase grouping such calls. Only the root proc of a testbed records
// spans, so they nest strictly.
//
// The in-memory form holds no pointers (names are interned), so the
// garbage collector never scans the span log: a ping-pong iteration
// records 24 000 spans and must not pay for the ones before it.
type span struct {
	StartNs, EndNs int64
	// Kernel counters over a phase span, snapshot at the same boundaries.
	Events, Switches int64
	Iter             int32
	Parent           int32 // index of the enclosing span, -1 for an iteration
	layer, name      uint16
	phase            bool
}

// spanJSON is a span as the trace file holds it.
type spanJSON struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Iter     int32  `json:"iter"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Events   int64  `json:"events,omitempty"`
	Switches int64  `json:"proc_switches,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the measured pass runs.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	iter  int32
	tb    *testbed
	names []string // interned layer and span names
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// intern maps a name to its index; the handful of names makes a linear
// scan cheaper than a map.
func (t *tracer) intern(s string) uint16 {
	for i, n := range t.names {
		if n == s {
			return uint16(i)
		}
	}
	t.names = append(t.names, s)
	return uint16(len(t.names) - 1)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) push(layer, name string, phase bool) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: t.intern(name), layer: t.intern(layer), Iter: t.iter, Parent: parent, phase: phase})
	t.open = append(t.open, i)
	if phase {
		t.spans[i].Events, t.spans[i].Switches = t.tb.kernelCounters()
	}
	t.spans[i].StartNs = t.now()
	return i
}

// pop ends the innermost open span and returns its duration in ns.
func (t *tracer) pop() float64 {
	end := t.now()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.EndNs = end
	if s.phase {
		events, switches := t.tb.kernelCounters()
		s.Events, s.Switches = events-s.Events, switches-s.Switches
	}
	return float64(s.EndNs - s.StartNs)
}

// beginIter opens the root span of one traced iteration.
func (t *tracer) beginIter(n int, tb *testbed) {
	if t == nil {
		return
	}
	t.iter, t.tb = int32(n), tb
	t.push("harness", "iteration", true)
}

func (t *tracer) endIter() {
	if t != nil {
		t.pop()
	}
}

// phase opens a span around a group of calls into one layer. It
// returns false when spans are off.
func (t *tracer) phase(layer, name string) bool {
	if t == nil {
		return false
	}
	t.push(layer, name, true)
	return true
}

// endPhase closes the span phase opened and returns its duration in ns.
func (t *tracer) endPhase() float64 { return t.pop() }

// op opens a span around one call into a layer's public function.
func (t *tracer) op(layer, name string) {
	if t != nil {
		t.push(layer, name, false)
	}
}

func (t *tracer) endOp() {
	if t != nil {
		t.pop()
	}
}

// layerRow is one line of the per-layer table: every span of one
// (layer, name), inclusive time and self time, which is the span's
// duration minus the part its child spans cover.
type layerRow struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	InclNs float64 `json:"incl_ns"`
	SelfNs float64 `json:"self_ns"`
}

// layerTable aggregates the recorded spans by (layer, name).
func (t *tracer) layerTable() []layerRow {
	spans := t.spans
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	rows := map[[2]uint16]*layerRow{}
	for i, s := range spans {
		key := [2]uint16{s.layer, s.name}
		r := rows[key]
		if r == nil {
			r = &layerRow{Layer: t.names[s.layer], Name: t.names[s.name]}
			rows[key] = r
		}
		d := s.EndNs - s.StartNs
		r.Count++
		r.InclNs += float64(d)
		r.SelfNs += float64(d - children[i])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Layers   []layerRow `json:"layers"`
	Spans    []spanJSON `json:"spans"`
}

// write stores the trace under dir. Per-call spans are kept for the
// first traced iteration only (a ping-pong iteration alone has 24 000
// of them); phase spans are kept for every iteration. Parent indices
// refer to positions in the written list.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	keep := make([]int32, len(t.spans))
	var out []spanJSON
	for i, s := range t.spans {
		keep[i] = -1
		if s.phase || s.Iter == 0 {
			keep[i] = int32(len(out))
			if s.Parent >= 0 {
				s.Parent = keep[s.Parent]
			}
			out = append(out, spanJSON{Name: t.names[s.name], Layer: t.names[s.layer], Iter: s.Iter,
				StartNs: s.StartNs, EndNs: s.EndNs, Parent: s.Parent, Events: s.Events, Switches: s.Switches})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: t.layerTable(), Spans: out})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
