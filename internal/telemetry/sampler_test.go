package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padico/internal/telemetry/series"
	"padico/internal/vtime"
)

func TestSamplerNilHubNoop(t *testing.T) {
	var h *Hub
	s := h.StartSampler(250e6)
	if s != nil {
		t.Fatal("nil hub must yield a nil sampler")
	}
	// Every method of the nil sampler no-ops.
	s.Stop()
	if s.Scrapes() != 0 || s.Series() != nil {
		t.Fatal("nil sampler accessors must be empty")
	}
	var b bytes.Buffer
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"series":[]`) {
		t.Fatalf("nil sampler JSON: %q", b.String())
	}
	b.Reset()
	if err := s.WriteDash(&b, series.DashOptions{Title: "t"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "<svg") && !strings.Contains(b.String(), "<!DOCTYPE html>") {
		t.Fatalf("nil sampler dash: %q", b.String())
	}
}

func TestSamplerScrapesKinds(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	reg := h.Registry()
	layer := struct{ Ops, Wobbly int64 }{Wobbly: 7}
	reg.BindStruct("layer", &layer)
	var depth int64
	reg.GaugeFunc("layer.depth", func() int64 { return depth })
	hist := reg.Histogram("layer.lat")
	reg.MarkVolatile("layer.wobbly")
	var busyNS int64
	reg.CounterFunc("link.busy_ns", func() int64 { return busyNS })

	sam := h.StartSampler(vtime.Duration(100 * time.Millisecond))
	err := k.Run(func(p *vtime.Proc) {
		for i := 0; i < 10; i++ {
			atomic.AddInt64(&layer.Ops, 5)
			depth = int64(i)
			hist.Observe(vtime.Duration(time.Millisecond))
			// Half an interval of "serialization" per interval.
			busyNS += 50e6
			p.Sleep(100 * time.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	set := sam.Series()
	if sam.Scrapes() == 0 || set.Len() == 0 {
		t.Fatal("sampler took no scrapes")
	}
	if set.Get("layer.wobbly") != nil {
		t.Fatal("volatile metric leaked into the series")
	}
	// Counter → rate: 5 ops per 100ms interval = 50/s.
	ops := set.Get("layer.ops")
	if ops == nil || ops.Kind != "rate" {
		t.Fatalf("counter track missing or wrong kind: %+v", ops)
	}
	if v := ops.Points()[1].V; v != 50 {
		t.Fatalf("ops rate: got %v, want 50/s", v)
	}
	// Gauge → level samples.
	if depth := set.Get("layer.depth"); depth == nil || depth.Kind != "gauge" {
		t.Fatal("gauge track missing")
	}
	// Histogram → rate + quantile tracks.
	if set.Get("layer.lat.rate") == nil || set.Get("layer.lat.p50") == nil || set.Get("layer.lat.p99") == nil {
		t.Fatal("histogram tracks missing")
	}
	if p50 := set.Get("layer.lat.p50"); p50.Points()[1].V != 1e6 {
		t.Fatalf("windowed p50: got %v, want 1ms", p50.Points()[1].V)
	}
	// *.busy_ns renders as a busy-fraction gauge, not a raw rate.
	busy := set.Get("link.busy_frac")
	if busy == nil || busy.Kind != "gauge" {
		t.Fatal("busy_ns not rendered as busy_frac gauge")
	}
	if set.Get("link.busy_ns") != nil {
		t.Fatal("raw busy_ns track should be replaced by busy_frac")
	}
	if v := busy.Points()[1].V; v != 0.5 {
		t.Fatalf("busy fraction: got %v, want 0.5", v)
	}
}

// TestSamplerConcurrentBumps drives scrapes while goroutines outside
// the kernel hammer the counters — the -race check that scraping reads
// (atomic loads under the registry lock) never race with hot-path
// bumps.
func TestSamplerConcurrentBumps(t *testing.T) {
	k := vtime.NewKernel()
	h := Attach(k)
	reg := h.Registry()
	var hot struct{ Ops int64 }
	reg.BindStruct("hot", &hot)
	var depth int64
	reg.GaugeFunc("hot.depth", func() int64 { return atomic.LoadInt64(&depth) })
	hist := reg.Histogram("hot.lat")

	done := make(chan struct{})
	var wg sync.WaitGroup
	var spin int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					atomic.AddInt64(&hot.Ops, 1)
					atomic.AddInt64(&depth, 1)
					hist.Observe(vtime.Duration(atomic.AddInt64(&spin, 1) % 1e6))
				}
			}
		}()
	}
	sam := h.StartSampler(vtime.Duration(10 * time.Millisecond))
	err := k.Run(func(p *vtime.Proc) {
		p.Sleep(time.Second)
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sam.Scrapes() == 0 || sam.Series().Get("hot.ops") == nil {
		t.Fatal("sampler missed the hot counters")
	}
}
