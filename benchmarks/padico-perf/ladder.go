package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"
)

// The layer ladder drives the same message at each height of the stack,
// one fresh testbed per rung and repetition, and reports for each rung
// its inclusive cost and its self cost: the rung minus the rung it
// stands on. All of it is measured from outside, through the same doors
// the workloads use.

const ladderReps = 5 // repetitions per rung; the median is reported

// rungCost is what one rung costs per operation on the host clock.
type rungCost struct {
	ns         float64 // per call (doors) or per MiB (streams)
	allocBytes float64 // bytes allocated per payload byte
	mallocs    float64 // heap objects allocated per operation
	counters   map[string]int64
}

// memDelta measures allocation around fn, starting from a collected heap.
func memDelta(fn func()) (elapsed time.Duration, mallocs, bytes float64) {
	var m0, m1 runtime.MemStats
	collect()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return elapsed, float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// medianCost folds the repetitions of one rung.
func medianCost(reps []rungCost) rungCost {
	var ns, ab, ma []float64
	for _, r := range reps {
		ns, ab, ma = append(ns, r.ns), append(ab, r.allocBytes), append(ma, r.mallocs)
	}
	return rungCost{ns: median(ns), allocBytes: median(ab), mallocs: median(ma), counters: reps[len(reps)-1].counters}
}

// measureDoor times calls of one request size through one rung.
func measureDoor(spec doorSpec, in *sanInputs, calls int) (rungCost, error) {
	var reps []rungCost
	size := in.size
	for rep := 0; rep < ladderReps; rep++ {
		tb := spec.build()
		e := &echo{in: in}
		err := tb.runErr(func(p *Proc) error {
			d, err := spec.open(p, tb, size, replyLen, e.serve)
			if err != nil {
				return err
			}
			defer d.close()
			i := 0
			for ; i <= calls/10; i++ { // warm-up
				e.exchange(p, d, i)
			}
			bad := 0
			elapsed, mallocs, bytes := memDelta(func() {
				for end := i + calls; i < end; i++ {
					if !e.exchange(p, d, i) {
						bad++
					}
				}
			})
			if bad > 0 {
				return fmt.Errorf("%d of %d calls failed", bad, calls)
			}
			reps = append(reps, rungCost{
				ns:         float64(elapsed) / float64(calls),
				allocBytes: bytes / float64(calls*(size+replyLen)),
				mallocs:    mallocs / float64(calls),
			})
			return nil
		})
		if err != nil {
			return rungCost{}, fmt.Errorf("ladder rung %s: %w", spec.layer, err)
		}
	}
	return medianCost(reps), nil
}

// doorLadder measures every rung of the SAN ladder and hands each
// rung's inclusive and self cost to report.
func doorLadder(cfg *runConfig, size, distinct, calls int, report func(spec doorSpec, incl, self rungCost)) error {
	in := genSAN(cfg.seed, size, distinct)
	costs := map[string]rungCost{}
	for _, spec := range sanLadder {
		c, err := measureDoor(spec, in, cfg.scaled(calls))
		if err != nil {
			return err
		}
		costs[spec.layer] = c
		self := c
		if spec.below != "" {
			self.ns -= costs[spec.below].ns
		}
		report(spec, c, self)
	}
	return nil
}

// msgLadder is the 64 B ladder, the vtime microbenchmarks and the
// session open cost: what san-pingpong's wall_s is made of.
func msgLadder(cfg *runConfig, out map[string]float64) error {
	err := doorLadder(cfg, 64, 4096, 2000, func(spec doorSpec, incl, self rungCost) {
		if spec.layer == "netsim" {
			out["netsim.ns_per_packet_san"] = incl.ns / 2 // one packet each way
			return
		}
		out[spec.layer+".ns_per_msg"] = incl.ns
		out[spec.layer+".self_ns_per_msg"] = self.ns
	})
	if err != nil {
		return err
	}
	nEvents, nSwitches, nOpens := cfg.scaled(1_000_000), cfg.scaled(200_000), cfg.scaled(200)
	var perEvent, perSwitch, perOpen []float64
	for rep := 0; rep < ladderReps; rep++ {
		t0 := time.Now()
		if err := fireEvents(nEvents); err != nil {
			return err
		}
		perEvent = append(perEvent, float64(time.Since(t0))/float64(nEvents))
		t0 = time.Now()
		if err := switchProcs(nSwitches); err != nil {
			return err
		}
		// One hand-over and back is two switches into each proc.
		perSwitch = append(perSwitch, float64(time.Since(t0))/float64(2*nSwitches))

		tb := newCluster(2)
		err := tb.runErr(func(p *Proc) error {
			t0 := time.Now()
			for i := 0; i < nOpens; i++ {
				if err := sessionOpenClose(p, tb); err != nil {
					return err
				}
			}
			perOpen = append(perOpen, float64(time.Since(t0))/float64(nOpens))
			return nil
		})
		if err != nil {
			return fmt.Errorf("session open/close: %w", err)
		}
	}
	out["vtime.ns_per_event"] = median(perEvent)
	out["vtime.ns_per_switch"] = median(perSwitch)
	out["session.open_ns"] = median(perOpen)
	return nil
}

// bulkLadder is the 1 MiB ladder: what san-bulk's wall_s and
// alloc_mb_per_iter are made of.
func bulkLadder(cfg *runConfig, out map[string]float64) error {
	return doorLadder(cfg, mib, 4, 16, func(spec doorSpec, incl, self rungCost) {
		if spec.layer == "netsim" {
			return
		}
		out[spec.layer+".ns_per_mb"] = incl.ns
		out[spec.layer+".self_ns_per_mb"] = self.ns
		out[spec.layer+".alloc_bytes_per_payload_byte"] = incl.allocBytes
	})
}

// measureStream times one stream of total bytes through one WAN rung.
func measureStream(spec streamSpec, block []byte, total int) (rungCost, error) {
	var reps []rungCost
	for rep := 0; rep < ladderReps; rep++ {
		tb := newTwoSites(1, 1, wanLoss)
		check := &streamCheck{block: block, bad: map[int]bool{}}
		err := tb.runErr(func(p *Proc) error {
			s, err := spec.open(p, tb, total, check.sink)
			if err != nil {
				return err
			}
			defer s.close()
			before := tb.counters()
			var failed error
			elapsed, mallocs, bytes := memDelta(func() {
				for off := 0; off < total && failed == nil; off += streamWrite {
					pos := off % len(block)
					failed = s.write(p, block[pos:pos+streamWrite])
				}
				if failed == nil {
					failed = s.wait(p)
				}
			})
			if failed != nil {
				return failed
			}
			if check.off != total || len(check.bad) > 0 {
				return fmt.Errorf("sink got %d of %d bytes, %d damaged writes", check.off, total, len(check.bad))
			}
			after := tb.counters()
			for k, v := range before {
				after[k] -= v
			}
			mb := float64(total) / mib
			reps = append(reps, rungCost{ns: float64(elapsed) / mb, allocBytes: bytes / float64(total),
				mallocs: mallocs, counters: after})
			return nil
		})
		if err != nil {
			return rungCost{}, fmt.Errorf("ladder rung %s: %w", spec.layer, err)
		}
	}
	return medianCost(reps), nil
}

// wanLadderRun is the 8 MiB stream at each height of the WAN stack:
// what wan-stream's wall_s is made of.
func wanLadderRun(cfg *runConfig, out map[string]float64) error {
	block := halfCompressible(cfg.seed, mib)
	total := cfg.scaled(32) * streamWrite
	costs := map[string]rungCost{}
	for _, spec := range wanLadder {
		c, err := measureStream(spec, block, total)
		if err != nil {
			return err
		}
		costs[spec.layer] = c
		self := c.ns
		if spec.below != "" {
			self -= costs[spec.below].ns
		}
		switch spec.layer {
		case "netsim":
			packets := float64((streamWrite + wanMSS - 1) / wanMSS * (total / streamWrite))
			out["netsim.ns_per_packet_wan"] = c.ns * float64(total) / mib / packets
		case "ipstack":
			out["ipstack.ns_per_mb"] = c.ns
			out["ipstack.self_ns_per_mb"] = self
			segs := float64(c.counters["ipstack.tcp_segs_sent"])
			out["ipstack.tcp_segs_sent"] = segs
			out["ipstack.tcp_retransmits"] = float64(c.counters["ipstack.tcp_retransmits"])
			if segs > 0 {
				out["ipstack.allocs_per_segment"] = c.mallocs / segs
			}
		case "vlink":
			out["vlink.wan_ns_per_mb"] = c.ns
			out["vlink.wan_self_ns_per_mb"] = self
		default: // pstreams, adoc, gsec, session: what each adds to a plain VLink
			out[spec.layer+wanSelfSuffix(spec.layer)] = self
		}
	}
	return nil
}

func wanSelfSuffix(rung string) string {
	if rung == "session" {
		return ".wan_self_ns_per_mb"
	}
	return ".self_ns_per_mb"
}

// groupLadderRun prices the group layer alone (one multicast to every
// member of the grid-replicate testbed) and the telemetry hub: the
// grid-replicate timed section with the hub attached and tracing on
// against the same section with the hub off.
func groupLadderRun(cfg *runConfig, out map[string]float64) error {
	const size = 2 * mib
	data := halfCompressible(cfg.seed, size)
	var perMB []float64
	for rep := 0; rep < ladderReps; rep++ {
		tb := newTwoSites(3, 3, 0.0002)
		grp, err := tb.newGroup(4)
		if err != nil {
			return err
		}
		err = tb.runErr(func(p *Proc) error {
			before := tb.counters()
			t0 := time.Now()
			got, err := grp.multicast(p, "perf", data)
			perMB = append(perMB, float64(time.Since(t0))/(float64(size)/mib))
			if err != nil {
				return err
			}
			for n, b := range got {
				if !bytes.Equal(b, data) {
					return fmt.Errorf("member %d verified a different payload", n)
				}
			}
			after := tb.counters()
			out["group.multicasts"] = float64(after["group.multicasts"] - before["group.multicasts"])
			out["group.edges_opened"] = float64(after["group.edges_opened"] - before["group.edges_opened"])
			out["group.wan_bytes"] = float64(after["netsim.core_bytes"] - before["netsim.core_bytes"])
			return nil
		})
		if err != nil {
			return fmt.Errorf("group multicast: %w", err)
		}
	}
	out["group.ns_per_mb"] = median(perMB)

	w := findWorkload("grid-replicate")
	var off, on, spans []float64
	for rep := 0; rep < ladderReps; rep++ {
		for _, hub := range []bool{false, true} {
			it := &iter{cfg: cfg, workload: w.name, n: rep, hubOn: hub, start: time.Now()}
			w.run(it)
			if it.fatal != nil {
				return it.fatal
			}
			if hub {
				on = append(on, it.wallS)
				spans = append(spans, float64(it.hubSpans))
			} else {
				off = append(off, it.wallS)
			}
		}
	}
	out["telemetry.hub_on_overhead_frac"] = median(on)/median(off) - 1
	out["telemetry.spans_per_iter"] = median(spans)
	return nil
}
