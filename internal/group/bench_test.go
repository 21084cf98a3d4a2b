package group_test

import (
	"crypto/sha256"
	"testing"

	"padico/internal/grid"
	"padico/internal/group"
	"padico/internal/vtime"
)

// BenchmarkMulticastSum times one 2 MiB multicast over a two-site tree
// (one WAN crossing, SAN fan-out below each leader) on the host clock,
// with the digest supplied by the caller: the root hashes nothing, each
// of the five receiving members hashes its copy once. Run with
// -benchmem.
func BenchmarkMulticastSum(b *testing.B) {
	const size = 2 << 20
	g := grid.TwoClusterWAN(3, 3)
	grp, err := g.NewGroup(allNodes(g), group.Config{})
	if err != nil {
		b.Fatal(err)
	}
	data := payloadBytes(61, size)
	sum := sha256.Sum256(data)
	b.SetBytes(size)
	b.ReportAllocs()
	if err := g.K.Run(func(p *vtime.Proc) {
		multicast := func() {
			got, err := grp.MulticastSum(p, 0, "bench", data, sum, 1)
			if err != nil || len(got) != 5 {
				b.Fatalf("multicast: %d copies, err %v", len(got), err)
			}
		}
		multicast() // WAN edges are opened once and cached
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			multicast()
		}
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}
