package ipstack

import (
	"io"
	"testing"

	"padico/internal/vtime"
)

// BenchmarkTCPWANStream is one MiB streamed by one TCP connection across
// the VTHD-like WAN of wanPair: segments, ACK rounds and RTO re-arms on
// a path with a window's worth of packets in flight.
func BenchmarkTCPWANStream(b *testing.B) {
	const mib = 1 << 20
	k := vtime.NewKernel()
	_, ha, hb := wanPair(k)
	b.SetBytes(mib)
	b.ReportAllocs()
	if err := k.Run(func(p *vtime.Proc) {
		ln, _ := hb.Listen(80)
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			c, _ := ln.Accept(q)
			buf := make([]byte, 64<<10)
			for total := 0; total < b.N*mib; {
				n, err := c.Read(q, buf)
				total += n
				if err != nil {
					if err != io.EOF {
						b.Error(err)
					}
					return
				}
			}
		})
		c, err := ha.Dial(p, hb.ID(), 80)
		if err != nil {
			b.Fatal(err)
		}
		chunk := make([]byte, mib)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Write(p, chunk); err != nil {
				b.Fatal(err)
			}
		}
		done.Wait(p)
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}
