package netsim

import (
	"testing"
	"time"

	"padico/internal/vtime"
)

// BenchmarkPathInFlight is one packet crossing a 3-hop WAN path that
// carries about 1,000 others: every delivery sends the packet again, so
// the count in flight (queued or in latency flight) stays at the window.
// ns/op and allocs/op are per packet.
func BenchmarkPathInFlight(b *testing.B) {
	const window = 1000
	k := vtime.NewKernel()
	hop := func(name string) *Hop {
		// 1 µs per 1 kB packet, 333 µs of latency: a third of the window
		// flies on each hop.
		return &Hop{Name: name, Rate: 1e9, Latency: 333 * time.Microsecond, QueueCap: 4096}
	}
	path := NewPath(k, "bench", 1, hop("up"), hop("core"), hop("down"))
	sent, delivered := 0, 0
	done := vtime.NewCond("done")
	path.SetDeliver(func(pkt *Packet) {
		if delivered++; delivered == b.N {
			done.Signal()
		}
		if sent < b.N {
			sent++
			path.Send(pkt)
		}
	})
	b.ReportAllocs()
	if err := k.Run(func(p *vtime.Proc) {
		b.ResetTimer()
		for ; sent < min(window, b.N); sent++ {
			path.Send(&Packet{Wire: 1000})
		}
		done.Wait(p)
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}
