// Tracing a degrading-WAN transfer: the telemetry hub watches a small
// adaptive stream cross the degrade instant, then the program reads
// its own trace — the top-5 slowest spans and the virtual instant the
// re-selection landed — and writes the full Chrome trace JSON to
// trace.json for Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// The hub must be attached (g.Telemetry()) before the observed layers
// are built; with tracing enabled every layer stamps spans with kernel
// virtual time, so the timeline below is simulation time, not wall
// clock.
package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"time"

	"padico/internal/grid"
	"padico/internal/session"
	"padico/internal/vtime"
)

func main() {
	g := grid.DegradingWAN(1) // node 0 = site0, 1 = site1, 2 = site2
	tel := g.Telemetry()
	tel.EnableTracing()
	g.EnableWeather()

	fmt.Printf("testbed: 3 sites over a VTHD-like WAN; site0-site1 core degrades /%d at t=%v\n\n",
		grid.DegradeFactor, grid.DegradeAt)

	payload := bytes.Repeat([]byte("every span below is stamped in virtual time; "), 8<<20/45)

	err := g.K.Run(func(p *vtime.Proc) {
		// Open the adaptive channel shortly before the degrade, so
		// roughly half the stream rides the re-selected stack.
		start := vtime.Time(0).Add(grid.DegradeAt - 500*time.Millisecond)
		p.Sleep(start.Sub(p.Now()))
		ch, err := g.Open(p, 0, 1, session.WithAdaptive())
		if err != nil {
			panic(err)
		}
		done := vtime.NewWaitGroup("sink")
		done.Add(1)
		g.K.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			buf := make([]byte, len(payload))
			if _, err := ch.Remote().ReadFull(q, buf); err != nil {
				panic(err)
			}
			if !bytes.Equal(buf, payload) {
				panic("payload corrupted across the re-selection")
			}
		})
		const chunk = 128 << 10
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := ch.Write(p, payload[off:end]); err != nil {
				panic(err)
			}
		}
		done.Wait(p)
		ch.Close()
		ch.Remote().Close()
	})
	if err != nil {
		panic(err)
	}

	// Read the run back out of the trace.
	spans := tel.Spans()
	fmt.Printf("captured %d trace events\n\n", len(spans))

	// Where did the re-selection land? The session emits a "reselect"
	// span around the reopen handshake and a "resume" instant when the
	// replay completes.
	for _, sp := range spans {
		switch {
		case sp.Cat == "session" && sp.Name == "reselect":
			fmt.Printf("reselect landed at t=%v (took %v): %s\n",
				sp.Start, sp.Dur, sp.Args)
		case sp.Cat == "session" && sp.Name == "resume":
			fmt.Printf("resume complete at t=%v: %s\n", sp.Start, sp.Args)
		}
	}

	// Top-5 slowest spans (instants carry no duration).
	sorted := make([]int, 0, len(spans))
	for i, sp := range spans {
		if !sp.Instant {
			sorted = append(sorted, i)
		}
	}
	sort.Slice(sorted, func(a, b int) bool {
		return spans[sorted[a]].Dur > spans[sorted[b]].Dur
	})
	if len(sorted) > 5 {
		sorted = sorted[:5]
	}
	fmt.Println("\ntop-5 slowest spans:")
	fmt.Printf("%-10s %-12s %12s %14s  %s\n", "layer", "span", "start", "duration", "args")
	for _, i := range sorted {
		sp := spans[i]
		fmt.Printf("%-10s %-12s %12v %14v  %s\n",
			sp.Cat, sp.Name, sp.Start, sp.Dur, sp.Args)
	}

	f, err := os.Create("trace.json")
	if err != nil {
		panic(err)
	}
	if err := tel.WriteTrace(f); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	fmt.Println("\nwrote trace.json — load it in Perfetto or chrome://tracing")
}
