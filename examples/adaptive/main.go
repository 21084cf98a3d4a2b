// Adaptive sessions: a WAN link degrades mid-transfer and the session
// visibly re-selects. The testbed is grid.DegradingWAN — at t=6s of
// virtual time the site0–site1 core collapses to 1/16 of its rate —
// with the network-weather service watching (RTT pings + bandwidth
// micro-transfers + passive taps). A bulk stream opened with
// session.WithAdaptive starts just before the degrade: once the
// forecast crosses the threshold, the selector's fresh decision stacks
// AdOC on the now-slow link, and the channel transparently re-opens
// with a sequence-numbered resume handshake — the application just
// keeps writing, and every byte arrives exactly once.
package main

import (
	"bytes"
	"fmt"
	"time"

	"padico/internal/grid"
	"padico/internal/session"
	"padico/internal/vtime"
)

func main() {
	g := grid.DegradingWAN(1) // node 0 = site0, 1 = site1, 2 = site2
	svc := g.EnableWeather()

	fmt.Printf("testbed: 3 sites over a VTHD-like WAN; site0-site1 core degrades /%d at t=%v\n\n",
		grid.DegradeFactor, grid.DegradeAt)

	// A compressible payload (16 MB of repeated text): exactly the kind
	// of stream AdOC rescues on a slow link.
	payload := bytes.Repeat([]byte("the wide area is weather, not architecture; "), 16<<20/44)

	err := g.K.Run(func(p *vtime.Proc) {
		// Open the adaptive channel shortly before the degrade.
		start := vtime.Time(0).Add(grid.DegradeAt - 500*time.Millisecond)
		p.Sleep(start.Sub(p.Now()))
		ch, err := g.Open(p, 0, 1, session.WithAdaptive())
		if err != nil {
			panic(err)
		}
		before := ch.Info().Decision
		fmt.Printf("t=%-8v decision before: %s\n", p.Now(), before)

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
			fmt.Printf("t=%-8v receiver verified all %d MB intact\n", q.Now(), len(payload)>>20)
		})

		const chunk = 128 << 10
		announced := false
		for off := 0; off < len(payload); off += chunk {
			end := off + chunk
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := ch.Write(p, payload[off:end]); err != nil {
				panic(err)
			}
			if info := ch.Info(); !announced && info.Reselects > 0 {
				announced = true
				fmt.Printf("t=%-8v decision after:  %s  (reselects=%d, resumes=%d)\n",
					p.Now(), info.Decision, info.Reselects, info.Resumes)
			}
		}
		done.Wait(p)

		info := ch.Info()
		fmt.Printf("\nstream finished at t=%v\n", p.Now())
		fmt.Printf("  %s -> %s\n", before, info.Decision)
		fmt.Printf("  reselects=%d resumes=%d bytes=%d MB\n",
			info.Reselects, info.Resumes, info.BytesOut>>20)
		fmt.Printf("\nweather registry:\n%s", svc.String())
		ch.Close()
		ch.Remote().Close()
	})
	if err != nil {
		panic(err)
	}
}
