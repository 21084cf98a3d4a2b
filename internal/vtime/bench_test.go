package vtime

import (
	"fmt"
	"testing"
	"time"
)

// runBench runs body as the root Proc of a fresh kernel with the timer
// covering body only.
func runBench(b *testing.B, body func(k *Kernel, p *Proc)) {
	b.Helper()
	b.ReportAllocs()
	k := NewKernel()
	if err := k.Run(func(p *Proc) {
		b.ResetTimer()
		body(k, p)
		b.StopTimer()
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFire is one Schedule plus the fire of one event with
// the heap held at a steady depth: depth handlers re-arm themselves at
// scattered delays until b.N have fired.
func BenchmarkScheduleFire(b *testing.B) {
	for _, depth := range []int{16, 1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			runBench(b, func(k *Kernel, p *Proc) {
				done := NewCond("done")
				fired, lcg := 0, uint32(1)
				var tick func()
				tick = func() {
					if fired++; fired == b.N {
						done.Signal()
					}
					lcg = lcg*1664525 + 1013904223
					k.Schedule(Duration(lcg>>20)+1, tick)
				}
				for i := 0; i < depth; i++ {
					tick()
				}
				fired = 0
				b.ResetTimer()
				done.Wait(p)
			})
		})
	}
}

// BenchmarkSleepSelf is a lone Proc sleeping: one event and one resume
// of the Proc that parked.
func BenchmarkSleepSelf(b *testing.B) {
	runBench(b, func(k *Kernel, p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

// BenchmarkProcPingPong is one round trip of a token between two Procs:
// two switches, each to the other goroutine.
func BenchmarkProcPingPong(b *testing.B) {
	runBench(b, func(k *Kernel, p *Proc) {
		ping, pong := startEcho(k, p)
		for i := 0; i < b.N; i++ {
			ping.Signal()
			pong.Wait(p)
		}
	})
}

// BenchmarkCondWaitSignal is a Proc woken from Cond.Wait by an event
// handler, the shape of every I/O completion.
func BenchmarkCondWaitSignal(b *testing.B) {
	runBench(b, func(k *Kernel, p *Proc) {
		c := NewCond("c")
		signal := c.Signal
		for i := 0; i < b.N; i++ {
			k.Schedule(time.Microsecond, signal)
			c.Wait(p)
		}
	})
}

// BenchmarkFutureRoundTrip is the life of one asynchronous operation:
// NewFuture, completion from a handler, Wait.
func BenchmarkFutureRoundTrip(b *testing.B) {
	runBench(b, func(k *Kernel, p *Proc) {
		for i := 0; i < b.N; i++ {
			f := NewFuture[int]("op")
			k.Schedule(time.Microsecond, func() { f.Complete(i, nil) })
			if v, _ := f.Wait(p); v != i {
				b.Fatalf("future %d resolved to %d", i, v)
			}
		}
	})
}

// BenchmarkGoSpawn is the spawn, first run and exit of an empty Proc.
func BenchmarkGoSpawn(b *testing.B) {
	runBench(b, func(k *Kernel, p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Go("child", func(*Proc) {})
			p.Yield()
		}
	})
}
