package datagrid_test

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"padico/internal/datagrid"
	"padico/internal/grid"
	"padico/internal/vtime"
)

// The datagrid rung of the host-clock ledger (run with -benchmem):
// what one transfer and one repair scan cost the simulator itself.
// Virtual time is pinned elsewhere; these move when a layer starts
// hashing, copying or allocating per payload byte again.

// BenchmarkTransfer times one logical transfer (header, chunks under
// the credit window, arrival check, status) of a 2 MiB object across
// the SAN and across the WAN, and reports the bytes allocated per
// payload byte — 1 is the receiver's buffer, the rest is overhead.
func BenchmarkTransfer(b *testing.B) {
	const size = 2 << 20
	cases := []struct {
		name  string
		build func() *grid.Grid
	}{
		{"san-2MiB", func() *grid.Grid { return grid.Cluster(2) }},
		{"wan-2MiB", func() *grid.Grid { return grid.TwoClusterWAN(1, 1) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := c.build()
			dg := g.NewDataGrid(datagrid.Config{})
			data := payload(51, size)
			sum := sha256.Sum256(data)
			b.SetBytes(size)
			b.ReportAllocs()
			if err := g.K.Run(func(p *vtime.Proc) {
				transfer := func() {
					if _, err := dg.RunTransfer(p, 0, 1, "bench", data, sum); err != nil {
						b.Fatal(err)
					}
				}
				transfer() // channel and circuit set-up is not per-byte cost
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					transfer()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/size, "allocB/payloadB")
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRepairScan times one anti-entropy pass over a converged
// catalog: 64 objects at replica factor 3, nothing to repair. The scan
// reads digests and sizes from the engines' indexes; it must not touch
// the 192 payload views.
func BenchmarkRepairScan(b *testing.B) {
	const objects, size = 64, 128 << 10
	g := grid.Cluster(4)
	dg := g.NewDataGrid(datagrid.Config{Replicas: 3})
	b.ReportAllocs()
	if err := g.K.Run(func(p *vtime.Proc) {
		for i := 0; i < objects; i++ {
			if err := dg.Put(p, 0, fmt.Sprintf("scan-%d", i), payload(int64(i), size)); err != nil {
				b.Fatal(err)
			}
		}
		dg.WaitSettled(p)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := dg.RepairNow(p); n != 0 {
				b.Fatalf("converged catalog scheduled %d repairs", n)
			}
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}
