package vtime

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// mixStep is one line of a mix's log: when something fired, what, and
// under which trace context.
type mixStep struct {
	now  Time
	what string
	ctx  TraceCtx
}

// mixQueues are the two ways of running a mix: on Lanes and Alarms, or
// on plain Schedule events (the reference).
type mixQueues interface {
	push(lane int, t Time, v int)
	set(alarm int, t Time)
	stop(alarm int)
}

// realQueues runs a mix on Lanes and Alarms and counts the cases it hit.
type realQueues struct {
	lanes  [3]Lane[int]
	alarms [2]Alarm
	cases  map[string]int
}

func (q *realQueues) push(i int, t Time, v int) {
	l := &q.lanes[i]
	switch {
	case l.Len() == 0:
		q.cases["push to empty lane"]++
	case t < l.last:
		q.cases["push out of order"]++
	default:
		q.cases["push in order"]++
	}
	l.Push(t, v)
}

func (q *realQueues) set(i int, t Time) {
	a := &q.alarms[i]
	if a.Armed() {
		switch {
		case t < a.at:
			q.cases["set earlier"]++
		case t > a.at:
			q.cases["set later"]++
		default:
			q.cases["set same instant"]++
		}
	}
	a.Set(t)
}

func (q *realQueues) stop(i int) {
	if q.alarms[i].Armed() {
		q.cases["stop armed"]++
	}
	q.alarms[i].Stop()
}

// refQueues runs the same mix on plain Schedule: a lane value is one
// event, an alarm schedules one event per new deadline and only the
// latest generation fires. A Set to the deadline already pending starts
// no new generation.
type refQueues struct {
	k      *Kernel
	sink   func(what string)
	alarms [2]struct {
		armed bool
		at    Time
		gen   int
	}
}

func (q *refQueues) push(i int, t Time, v int) {
	q.k.ScheduleAt(t, func() { q.sink(fmt.Sprintf("lane%d:%d", i, v)) })
}

func (q *refQueues) set(i int, t Time) {
	a := &q.alarms[i]
	t = max(t, q.k.Now())
	a.armed = true
	if t == a.at && t > q.k.Now() {
		return
	}
	a.at = t
	a.gen++
	gen := a.gen
	q.k.ScheduleAt(t, func() {
		if a.armed && a.gen == gen {
			a.armed = false
			q.sink(fmt.Sprintf("alarm%d", i))
		}
	})
}

func (q *refQueues) stop(i int) { q.alarms[i].armed = false }

// runMix drives a seeded random mix of lane pushes, alarm sets and
// stops from a ticking handler and from the sinks themselves, with
// times spread over a few nanoseconds so that ties are common, and
// returns the fire log.
func runMix(t *testing.T, seed int64, real bool) ([]mixStep, map[string]int) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	var log []mixStep
	var q mixQueues
	var act func()
	sink := func(what string) {
		log = append(log, mixStep{k.Now(), what, k.TraceCtx()})
		if rng.Intn(3) == 0 {
			act()
		}
	}
	var cases map[string]int
	if real {
		rq := &realQueues{cases: map[string]int{}}
		for i := range rq.lanes {
			rq.lanes[i].Init(k, func(v int) { sink(fmt.Sprintf("lane%d:%d", i, v)) })
		}
		for i := range rq.alarms {
			rq.alarms[i].Init(k, func() { sink(fmt.Sprintf("alarm%d", i)) })
		}
		q, cases = rq, rq.cases
	} else {
		q = &refQueues{k: k, sink: sink}
	}
	n := 0
	act = func() {
		k.SetTraceCtx(TraceCtx{Trace: rng.Int63n(3), Span: rng.Int63n(100)})
		at := k.Now().Add(Duration(rng.Intn(4)))
		switch n++; rng.Intn(6) {
		case 0, 1, 2:
			q.push(rng.Intn(3), at, n)
		case 3, 4:
			q.set(rng.Intn(2), at.Add(Duration(rng.Intn(3))))
		default:
			q.stop(rng.Intn(2))
		}
	}
	ticks := 0
	var tick func()
	tick = func() {
		log = append(log, mixStep{k.Now(), "tick", k.TraceCtx()})
		for i := rng.Intn(3); i >= 0; i-- {
			act()
		}
		if ticks++; ticks < 3000 {
			k.Schedule(Duration(rng.Intn(2)), tick)
		}
	}
	if err := k.Run(func(p *Proc) {
		tick()
		p.Sleep(time.Second)
	}); err != nil {
		t.Fatal(err)
	}
	return log, cases
}

// TestLaneAndAlarmMatchSchedule checks that Lanes and Alarms fire what
// plain Schedule events would, at the same instants, in the same order
// and under the same trace contexts.
func TestLaneAndAlarmMatchSchedule(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		got, cases := runMix(t, seed, true)
		want, _ := runMix(t, seed, false)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d is %+v, Schedule fires %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d steps fired, Schedule fires %d", seed, len(got), len(want))
		}
		for c, n := range cases {
			seen[c] += n
		}
	}
	for _, c := range []string{"push to empty lane", "push in order", "push out of order",
		"set earlier", "set later", "set same instant", "stop armed"} {
		if seen[c] == 0 {
			t.Errorf("the mix never hit %q", c)
		}
	}
}

// TestLaneHoldsOneHeapEntry: however many values are in flight, a lane
// costs the heap one entry, and an alarm pushed back a thousand times
// costs it one.
func TestLaneHoldsOneHeapEntry(t *testing.T) {
	k := NewKernel()
	var l Lane[int]
	var a Alarm
	got := 0
	l.Init(k, func(v int) { got += v })
	a.Init(k, func() { got += 1000 })
	if err := k.Run(func(p *Proc) {
		for i := 0; i < 1000; i++ {
			l.Push(k.Now().Add(time.Duration(i)*time.Microsecond), 1)
			a.Set(k.Now().Add(time.Duration(i) * time.Millisecond))
		}
		alarms := 0
		for _, ev := range k.events {
			if ev.al == &a {
				alarms++
			}
		}
		if len(k.events) != 2 || alarms != 1 {
			t.Errorf("heap holds %d entries, %d of them the alarm's; want 2 and 1", len(k.events), alarms)
		}
		p.Sleep(time.Second)
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2000 || k.EventsFired != 1002 {
		t.Errorf("sink sum %d, %d events fired; want 2000 and 1002 (every value, one alarm, root's wake-up)", got, k.EventsFired)
	}
}
