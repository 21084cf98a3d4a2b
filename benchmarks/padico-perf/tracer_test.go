package main

import "testing"

// Self time is a span's duration minus the part its children cover.
func TestLayerTableSelfTime(t *testing.T) {
	tr := newTracer()
	add := func(layer, name string, parent int32, start, end int64) int32 {
		tr.spans = append(tr.spans, span{layer: tr.intern(layer), name: tr.intern(name),
			Parent: parent, StartNs: start, EndNs: end})
		return int32(len(tr.spans) - 1)
	}
	root := add("harness", "iteration", -1, 0, 1000)
	put := add("datagrid", "put", root, 100, 700)
	add("datagrid", "Put", put, 100, 300)
	add("datagrid", "Put", put, 350, 650)
	add("datagrid", "settle", root, 700, 950)

	got := map[string]layerRow{}
	for _, r := range tr.layerTable() {
		got[r.Layer+"/"+r.Name] = r
	}
	for key, want := range map[string]layerRow{
		"harness/iteration": {Count: 1, InclNs: 1000, SelfNs: 1000 - 600 - 250},
		"datagrid/put":      {Count: 1, InclNs: 600, SelfNs: 100},
		"datagrid/Put":      {Count: 2, InclNs: 500, SelfNs: 500},
		"datagrid/settle":   {Count: 1, InclNs: 250, SelfNs: 250},
	} {
		r := got[key]
		if r.Count != want.Count || r.InclNs != want.InclNs || r.SelfNs != want.SelfNs {
			t.Errorf("%s: count %d incl %v self %v, want %d %v %v", key, r.Count, r.InclNs, r.SelfNs,
				want.Count, want.InclNs, want.SelfNs)
		}
	}
}

// A nil tracer is how the measured pass runs: every call is a no-op.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.beginIter(0, nil)
	if tr.phase("x", "y") {
		t.Error("nil tracer opened a phase")
	}
	tr.op("x", "y")
	tr.endOp()
	tr.endIter()
}
