// The time-series dashboard end to end: run the sampled
// degrade → partition → heal scenario, print a terminal digest of the
// most telling tracks (core busy fraction, queued bytes, transfer
// p99), and write the full self-contained HTML dashboard to
// dash.html — one file, inline SVG, no external assets; open it in any
// browser.
//
// Every curve is virtual time: the sampler is a simulation daemon
// scraping the registry every 250ms of *simulated* time, so two runs
// of this program produce byte-identical dashboards.
package main

import (
	"fmt"
	"os"

	"padico/internal/bench"
	"padico/internal/grid"
	"padico/internal/scenario"
	"padico/internal/vtime"
)

func main() {
	fmt.Printf("testbed: 3 sites over a VTHD-like WAN; site0-site1 core degrades /%d at t=%v,\n"+
		"then site1 is partitioned and healed. Sampler cadence %v of virtual time.\n\n",
		grid.DegradeFactor, grid.DegradeAt, bench.SeriesInterval)

	rep, err := bench.Lookup("sampled").Run(scenario.Observers{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dashboard:", err)
		os.Exit(1)
	}
	sampler := rep.Envs[0].Sampler
	set := sampler.Series()
	fmt.Printf("sampled %d scrapes into %d tracks\n\n", sampler.Scrapes(), set.Len())

	// Terminal digest: the three curves that tell the story.
	for _, name := range []string{
		"netsim.hop.core:vthd:site0+site1.busy_frac",
		"netsim.hop.core:vthd:site0+site1.queued_bytes",
		"datagrid.transfer_latency.p99",
	} {
		tr := set.Get(name)
		if tr == nil {
			fmt.Printf("  %-48s (missing)\n", name)
			continue
		}
		lo, hi := tr.MinMax()
		peakAt := vtime.Time(0)
		for _, p := range tr.Points() {
			if p.V == hi {
				peakAt = p.T
				break
			}
		}
		fmt.Printf("  %-48s min %-12g peak %-12g at t=%v\n", name, lo, hi, peakAt)
	}

	for _, m := range rep.Dash.Marks {
		fmt.Printf("\n  mark: %-9s at t=%v", m.Label, m.T)
	}
	fmt.Println()

	f, err := os.Create("dash.html")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dashboard:", err)
		os.Exit(1)
	}
	if err := set.WriteDash(f, rep.Dash); err != nil {
		fmt.Fprintln(os.Stderr, "dashboard:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dashboard:", err)
		os.Exit(1)
	}
	fmt.Println("\nwrote dash.html — open it in a browser (no server, no JS, just SVG)")
}
