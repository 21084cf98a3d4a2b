package padico

import (
	"fmt"
	"reflect"
	"testing"
	"unicode"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/store"
	"padico/internal/telemetry"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// TestStatsMatchRegistry runs a datagrid and a group once under a
// telemetry hub and reads every counter two ways: the layer's Stats()
// copy and the registry's Value under the counter's metric name. They
// must agree field for field — one declaration, two readers.
func TestStatsMatchRegistry(t *testing.T) {
	g := grid.TwoClusterWAN(2, 2)
	reg := g.Telemetry().Registry() // the hub attaches before the layers bind
	dg := g.NewPackDataGrid(t.TempDir(), store.PackConfig{}, datagrid.Config{Replicas: 3})
	var grp *group.Group
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("s%d", i)
			if err := dg.Put(p, 0, name, make([]byte, 64<<10+i)); err != nil {
				t.Fatal(err)
			}
			if _, err := dg.Get(p, 3, name); err != nil {
				t.Fatal(err)
			}
		}
		dg.WaitSettled(p)
		if err := dg.Delete(p, "s1"); err != nil {
			t.Fatal(err)
		}
		dg.AuditNow(p)
		var err error
		if grp, err = g.NewGroup([]topology.NodeID{0, 1, 2, 3}, group.Config{}); err != nil {
			t.Fatal(err)
		}
		if _, err := grp.Multicast(p, 0, "m", make([]byte, 32<<10), 1); err != nil {
			t.Fatal(err)
		}
		if err := grp.Barrier(p); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var engines store.Stats
	for n := topology.NodeID(0); n < 4; n++ {
		s := dg.EngineOn(n).(*store.Pack).Stats()
		ev, sv := reflect.ValueOf(&engines).Elem(), reflect.ValueOf(s)
		for i := 0; i < ev.NumField(); i++ {
			ev.Field(i).SetInt(ev.Field(i).Int() + sv.Field(i).Int())
		}
	}
	for _, c := range []struct {
		prefix string
		stats  any
	}{
		{"session", g.Session().Stats()},
		{"datagrid", dg.Stats()},
		{"group", grp.Stats()},
		{"store", engines},
	} {
		matchRegistry(t, reg, c.prefix, c.stats)
	}
}

// matchRegistry checks every int64 field of stats against the
// registry's value for prefix.<metric name>, and that the run moved at
// least one of them.
func matchRegistry(t *testing.T, reg *telemetry.Registry, prefix string, stats any) {
	t.Helper()
	v := reflect.ValueOf(stats)
	var total int64
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		name := prefix + "." + metricName(f)
		if got, want := reg.Value(name), v.Field(i).Int(); got != want {
			t.Errorf("%s: registry %d, %T.%s %d", name, got, stats, f.Name, want)
		}
		total += v.Field(i).Int()
	}
	if total == 0 {
		t.Errorf("%s: the run moved no counter", prefix)
	}
}

// metricName is the registry's naming rule, restated: the `metric` tag,
// else the field name in snake_case with acronyms kept whole
// ("WANBytes" -> "wan_bytes").
func metricName(f reflect.StructField) string {
	if tag, ok := f.Tag.Lookup("metric"); ok {
		return tag
	}
	rs := []rune(f.Name)
	var out []rune
	for i, r := range rs {
		if unicode.IsUpper(r) && i > 0 &&
			(unicode.IsLower(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			out = append(out, '_')
		}
		out = append(out, unicode.ToLower(r))
	}
	return string(out)
}
