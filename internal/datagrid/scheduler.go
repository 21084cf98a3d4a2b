package datagrid

import (
	"errors"
	"fmt"
	"sync/atomic"

	"padico/internal/group"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// job is one replication task: copy name from src's store to dst
// (point-to-point), or — when dsts is set — to every listed target at
// once through one hierarchical multicast. Repair jobs (submitted by
// the anti-entropy loop) are the same transfers with extra
// bookkeeping: Stats.Repairs and the store.repair_latency histogram,
// measured from t0 (detection) to the copy landing.
type job struct {
	name     string
	src, dst topology.NodeID
	dsts     []topology.NodeID
	repair   bool
	t0       vtime.Time
	ctx      vtime.TraceCtx // submitter's trace context, installed by the worker
}

// finishRepair books one restored copy.
func (s *scheduler) finishRepair(j *job, dst topology.NodeID) {
	if !j.repair {
		return
	}
	dg := s.dg
	atomic.AddInt64(&dg.stats.Repairs, 1)
	dg.hRepair.Observe(dg.k.Now().Sub(j.t0))
	dg.tel.Note("datagrid", "repair complete: "+j.name, int(dst), int64(j.src), 0)
}

// scheduler runs replication jobs on a fixed pool of worker Procs, so
// many PUT/GET/replication transfers proceed concurrently while the
// per-transfer windows keep each one flow-controlled.
// flightKey identifies one queued-or-running copy: this object toward
// this destination.
type flightKey struct {
	name string
	dst  topology.NodeID
}

type scheduler struct {
	dg       *DataGrid
	queue    *vtime.Queue[*job]
	pending  int
	inflight map[flightKey]int
	idle     *vtime.Cond
	errs     []error
}

func newScheduler(dg *DataGrid, workers int) *scheduler {
	s := &scheduler{
		dg:       dg,
		queue:    vtime.NewQueue[*job]("datagrid:jobs"),
		inflight: make(map[flightKey]int),
		idle:     vtime.NewCond("datagrid:idle"),
	}
	for i := 0; i < workers; i++ {
		dg.k.GoDaemon(fmt.Sprintf("dg-worker%d", i), s.work)
	}
	return s
}

func (s *scheduler) submit(j *job) {
	// The worker pool is long-lived: a job crossing the queue would lose
	// its causal ancestry, so the submitter's context rides on the job
	// and the worker reinstates it for the transfer's duration.
	j.ctx = s.dg.k.TraceCtx()
	s.pending++
	for _, k := range j.keys() {
		s.inflight[k]++
	}
	s.queue.Push(j)
}

// keys lists the (object, destination) pairs the job will deliver.
func (j *job) keys() []flightKey {
	if len(j.dsts) == 0 {
		return []flightKey{{j.name, j.dst}}
	}
	out := make([]flightKey, len(j.dsts))
	for i, d := range j.dsts {
		out[i] = flightKey{j.name, d}
	}
	return out
}

// inflightTo reports whether a queued or running job is already
// carrying the object to dst. The anti-entropy scan skips such
// targets: re-submitting would transfer the same bytes twice and
// double-count the repair.
func (s *scheduler) inflightTo(name string, dst topology.NodeID) bool {
	return s.inflight[flightKey{name, dst}] > 0
}

func (s *scheduler) work(p *vtime.Proc) {
	for {
		j := s.queue.Pop(p)
		prev := s.dg.k.SetTraceCtx(j.ctx)
		s.run(p, j)
		s.dg.k.SetTraceCtx(prev)
		for _, k := range j.keys() {
			if s.inflight[k]--; s.inflight[k] == 0 {
				delete(s.inflight, k)
			}
		}
		s.pending--
		if s.pending == 0 {
			s.idle.Broadcast()
		}
	}
}

func (s *scheduler) run(p *vtime.Proc, j *job) {
	dg := s.dg
	meta, ok := dg.catalog[j.name]
	if !ok {
		s.fail(fmt.Errorf("%w: %s dropped from the catalog", ErrNoObject, j.name))
		atomic.AddInt64(&dg.stats.Failures, 1)
		return
	}
	if len(j.dsts) > 0 {
		s.runGroup(p, j, meta)
		return
	}
	if dg.NodeDown(j.dst) {
		// The destination died while the job sat in the queue. Not a
		// failure: the repair loop restores the copy once the node is
		// marked up again (or the placement moves off it).
		dg.tel.Note("datagrid", "job dropped: destination down", int(j.dst), 0, 0)
		return
	}
	if _, ok := dg.freshCopy(meta, j.dst); ok {
		return // destination already converged (duplicate submission)
	}
	for {
		data, ok := s.source(j, meta, j.dst)
		if !ok {
			return
		}
		dg.EngineOn(j.src).Read(p, j.name) // charge the source engine's read
		got, err := dg.runTransfer(p, j.src, j.dst, j.name, data, meta.Sum)
		if errors.Is(err, errRotten) {
			continue // the source was quarantined: pick another holder
		}
		if err != nil {
			s.fail(fmt.Errorf("%s -> node %d: %w", j.name, j.dst, err))
			return
		}
		dg.storePut(p, j.dst, j.name, got, meta.Sum)
		s.finishRepair(j, j.dst)
		return
	}
}

// source returns the bytes a job will send, moving j.src to the fresh
// holder nearest dst when the submitted one cannot serve (the job may
// have queued behind a membership change, a newer version, a source
// crash or a quarantine); any other copy could only be rejected.
func (s *scheduler) source(j *job, meta *ObjectMeta, dst topology.NodeID) ([]byte, bool) {
	dg := s.dg
	if data, ok := dg.freshCopy(meta, j.src); ok && !dg.NodeDown(j.src) {
		return data, true
	}
	src, found := dg.freshHolder(meta, dst)
	if !found {
		s.fail(fmt.Errorf("%w: %s has no up-to-date source", ErrNoReplica, j.name))
		atomic.AddInt64(&dg.stats.Failures, 1)
		return nil, false
	}
	j.src = src
	return dg.freshCopy(meta, src)
}

// runGroup serves one multi-target replication job with hierarchical
// multicasts: the whole remaining target set per attempt, shrinking to
// the members that failed verification. Delivered copies are stored as
// they verify, so a partially failed attempt still makes progress.
func (s *scheduler) runGroup(p *vtime.Proc, j *job, meta *ObjectMeta) {
	dg := s.dg
	remaining := make([]topology.NodeID, 0, len(j.dsts))
	for _, t := range j.dsts {
		if dg.NodeDown(t) {
			continue // left to the repair loop, like any down destination
		}
		if _, ok := dg.freshCopy(meta, t); !ok {
			remaining = append(remaining, t)
		}
	}
	if len(remaining) == 0 {
		return // every destination already converged (or died in queue)
	}
	data, ok := s.source(j, meta, remaining[0])
	if !ok {
		return
	}
	// Only the submitted full placement set lives in the long-lived
	// group cache; a fan-out some other worker already partially
	// converged, and every shrunken retry set, runs on a transient
	// group released when done — no cache entry (each with its own open
	// WAN channels) per convergence pattern.
	var transient *group.Group
	defer func() {
		if transient != nil {
			dg.dropGroup(transient)
		}
	}()
	var grp *group.Group
	var gerr error
	if len(remaining) == len(j.dsts) {
		grp, gerr = dg.groupFor(append([]topology.NodeID{j.src}, remaining...))
	} else {
		grp, gerr = dg.newGroup(append([]topology.NodeID{j.src}, remaining...))
		transient = grp
	}
	if gerr != nil {
		s.fail(gerr)
		atomic.AddInt64(&dg.stats.Failures, 1)
		return
	}
	atomic.AddInt64(&dg.stats.Jobs, 1)
	dg.EngineOn(j.src).Read(p, j.name)             // charge the source engine's read
	p.Consume(model.MemcpyPerByte.Cost(len(data))) // checksum pass over the payload
	var lastErr error
	for attempt := 1; attempt <= maxRetries; attempt++ {
		got, err := grp.MulticastSum(p, j.src, j.name, data, meta.Sum, attempt)
		dg.syncGroupWAN(grp)
		for _, t := range remaining {
			if copyBytes, ok := got[t]; ok {
				dg.storePut(p, t, j.name, copyBytes, meta.Sum)
				atomic.AddInt64(&dg.stats.BytesMoved, int64(len(copyBytes)))
				s.finishRepair(j, t)
			}
		}
		if err == nil {
			atomic.AddInt64(&dg.stats.GroupFanouts, 1)
			return
		}
		lastErr = err
		atomic.AddInt64(&dg.stats.Retries, 1)
		var rejected *group.MulticastError
		if errors.As(err, &rejected) && dg.quarantineRotten(p, j.src, j.name, data, meta.Sum) {
			s.runGroup(p, j, meta) // start over from another holder
			return
		}
		next := remaining[:0]
		for _, t := range remaining {
			if _, ok := dg.freshCopy(meta, t); !ok {
				next = append(next, t)
			}
		}
		remaining = next
		if len(remaining) == 0 { // partial error but everyone converged
			atomic.AddInt64(&dg.stats.Retries, -1)
			atomic.AddInt64(&dg.stats.GroupFanouts, 1)
			return
		}
		if attempt == maxRetries {
			break
		}
		retryGrp, gerr := dg.newGroup(append([]topology.NodeID{j.src}, remaining...))
		if gerr != nil {
			s.fail(gerr)
			atomic.AddInt64(&dg.stats.Failures, 1)
			return
		}
		if transient != nil {
			dg.dropGroup(transient)
		}
		transient, grp = retryGrp, retryGrp
	}
	atomic.AddInt64(&dg.stats.Retries, -1) // the final attempt was a failure, not a retry
	atomic.AddInt64(&dg.stats.Failures, 1)
	dg.tel.DumpFlight("datagrid fan-out failed: " + j.name)
	s.fail(fmt.Errorf("%w: %s fan-out to %v: %v", ErrJobFailed, j.name, remaining, lastErr))
}

func (s *scheduler) fail(err error) {
	s.dg.tel.Note("datagrid", "job failed", 0, int64(len(s.errs)+1), 0)
	s.errs = append(s.errs, err)
}

func (s *scheduler) waitSettled(p *vtime.Proc) {
	for s.pending > 0 {
		s.idle.Wait(p)
	}
}
