// Package vlink implements the distributed-paradigm abstract interface
// of the paper's abstraction layer (§4.2): client/server-oriented,
// dynamic connections, streaming, and a flexible asynchronous API of
// five primitive operations — connect, accept, read, write, close —
// whose completion can be polled, awaited, or hooked with a handler.
//
// A set of such primitives is a VLink driver. Drivers exist over SysIO
// (straight: distributed interface on distributed hardware), over MadIO
// (cross-paradigm: distributed interface on SAN hardware), loopback,
// and the WAN methods (parallel streams, AdOC compression, VRP) in
// their own packages. The abstraction is fully transparent: the VLink
// API is identical whatever the driver underneath (§3.3).
package vlink

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrNoDriver = errors.New("vlink: no such driver")
	ErrClosed   = errors.New("vlink: link closed")
	ErrRefused  = errors.New("vlink: connection refused")
)

// Addr names a VLink rendezvous point.
type Addr struct {
	Node topology.NodeID
	Port int
}

func (a Addr) String() string { return fmt.Sprintf("vlink://%d:%d", a.Node, a.Port) }

// Op is an asynchronous operation descriptor. N carries the byte count
// for read/write operations. A returned Op is the caller's for good; the
// synchronous conveniences (Read, Write, WriteVec), whose callers never
// see one, give theirs back to the link for its next operation.
type Op struct {
	f    vtime.Future[int]
	v    *VLink
	kind opKind
	buf  []byte     // PostWrite's data
	vec  iovec.Vec  // PostWritev's vector
	flat *iovec.Buf // vec flattened for a driver without vectors
	n    int        // a read's result, held over the abstraction cost
	err  error
	step func()           // advance, bound once
	done func(int, error) // driverDone, bound once
}

type opKind byte

const (
	opRead opKind = iota
	opWrite
	opWritev
)

func newOp(name string) *Op {
	op := &Op{}
	op.f.Reset(name)
	return op
}

func (v *VLink) op(kind opKind, name string) *Op {
	var op *Op
	if n := len(v.pool); n > 0 {
		op, v.pool = v.pool[n-1], v.pool[:n-1]
	} else {
		op = &Op{v: v}
		op.step, op.done = op.advance, op.driverDone
	}
	op.kind = kind
	op.f.Reset(name)
	return op
}

// wait blocks for op, which no caller holds, and takes it back.
func (v *VLink) wait(p *vtime.Proc, op *Op) (int, error) {
	n, err := op.f.Wait(p)
	op.buf, op.vec, op.err = nil, iovec.Vec{}, nil
	v.pool = append(v.pool, op)
	return n, err
}

// advance runs once the abstraction cost has elapsed.
func (op *Op) advance() {
	v := op.v
	switch op.kind {
	case opRead:
		op.f.Complete(op.n, op.err)
	case opWrite:
		v.c.PostWrite(op.buf, op.done)
	case opWritev:
		if vc, ok := v.c.(VecConn); ok {
			vc.PostWritev(op.vec, op.done)
			return
		}
		// Driver without vector support: flatten once into a pooled
		// buffer for the duration of the inner write.
		op.flat = op.vec.Flatten()
		v.c.PostWrite(op.flat.Bytes(), op.done)
	}
}

// driverDone is the driver's completion; a read's cost runs after it.
func (op *Op) driverDone(n int, err error) {
	v := op.v
	if op.kind == opRead {
		v.BytesIn += int64(n)
		op.n, op.err = n, err
		// Abstraction-layer cost: per op + per byte.
		kernelOf(v).Schedule(model.VLinkCost+model.VLinkPerByte.Cost(n), op.step)
		return
	}
	if op.flat != nil {
		op.flat.Release()
		op.flat = nil
	}
	v.BytesOut += int64(n)
	op.f.Complete(n, err)
}

// Done reports completion (poll interface).
func (o *Op) Done() bool { return o.f.Done() }

// Wait blocks until completion and returns (n, err).
func (o *Op) Wait(p *vtime.Proc) (int, error) { return o.f.Wait(p) }

// Result returns (n, err); it panics if the operation is not complete.
func (o *Op) Result() (int, error) { return o.f.Value() }

// SetHandler installs a completion callback (kernel context). If the
// operation already completed the handler runs immediately.
func (o *Op) SetHandler(fn func(n int, err error)) {
	if o.f.Done() {
		fn(o.f.Value())
		return
	}
	o.f.Handler = fn
}

func (o *Op) complete(n int, err error) { o.f.Complete(n, err) }

// Driver is one incarnation of the VLink abstract interface.
type Driver interface {
	// Name identifies the driver ("sysio", "madio", "pstreams", ...).
	Name() string
	// Listen binds a passive endpoint on the driver's node.
	Listen(port int) (Listener, error)
	// Dial initiates a connection; cb runs in kernel context on
	// completion.
	Dial(addr Addr, cb func(Conn, error))
}

// Conn is a driver-level bidirectional byte stream. All methods are
// asynchronous and callable from kernel context.
type Conn interface {
	// PostRead delivers the next available bytes (up to len(buf)) into
	// buf and calls cb(n, err). At most one read may be outstanding.
	PostRead(buf []byte, cb func(n int, err error))
	// PostWrite queues data and calls cb(n, err) when the driver has
	// accepted it (not necessarily delivered).
	PostWrite(data []byte, cb func(n int, err error))
	// Close initiates an orderly shutdown; the peer's pending read
	// completes with io.EOF after draining.
	Close()
	// Peer returns the remote node.
	Peer() topology.NodeID
}

// Failer is the optional crash extension of Conn: drivers that can
// fail an established connection from outside (peer-death injection)
// implement it so a pending read completes promptly with the error
// instead of waiting for wire silence to time out.
type Failer interface {
	Fail(err error)
}

// VecConn is the vectored-write extension of Conn: drivers that can
// move a segment vector without flattening it implement PostWritev.
// The vector is borrowed until cb fires — the caller keeps every
// segment's bytes valid and immutable until then, and the driver takes
// its own references (iovec retain) for anything it must hold longer.
// Byte-stream semantics are identical to PostWrite of the flattened
// vector.
type VecConn interface {
	Conn
	PostWritev(v iovec.Vec, cb func(n int, err error))
}

// Listener is a driver-level passive endpoint.
type Listener interface {
	// SetAcceptHandler installs the inbound-connection callback.
	SetAcceptHandler(fn func(Conn))
	// Close unbinds the endpoint.
	Close()
}

// ---------------------------------------------------------------------
// Endpoint: the per-node VLink service, multiplexing drivers.

// Endpoint is the per-node VLink service. Middleware obtains VLinks
// from it either directly or through the selector.
type Endpoint struct {
	node    topology.NodeID
	drivers map[string]Driver

	Connects int64
	Accepts  int64
}

// NewEndpoint builds the VLink service for one node.
func NewEndpoint(node topology.NodeID) *Endpoint {
	return &Endpoint{node: node, drivers: make(map[string]Driver)}
}

// Node returns the endpoint's node.
func (ep *Endpoint) Node() topology.NodeID { return ep.node }

// AddDriver registers a driver incarnation.
func (ep *Endpoint) AddDriver(d Driver) { ep.drivers[d.Name()] = d }

// Driver returns a registered driver by name.
func (ep *Endpoint) Driver(name string) (Driver, error) {
	d, ok := ep.drivers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDriver, name)
	}
	return d, nil
}

// Drivers lists registered driver names, sorted — map iteration order
// must never leak into observable output (repo determinism rule).
func (ep *Endpoint) Drivers() []string {
	out := make([]string, 0, len(ep.drivers))
	for n := range ep.drivers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Connect posts an asynchronous connect through the named driver. The
// returned Op's N is meaningless; the VLink is usable when it completes
// without error.
func (ep *Endpoint) Connect(driver string, addr Addr) (*VLink, *Op) {
	d, err := ep.Driver(driver)
	if err != nil {
		op := newOp("vlink:connect")
		op.complete(0, err)
		return &VLink{}, op
	}
	return ep.ConnectDriver(d, addr)
}

// ConnectDriver is Connect on an explicit driver instance (used when a
// per-link driver stack was composed outside the registry, e.g. by the
// selector).
func (ep *Endpoint) ConnectDriver(d Driver, addr Addr) (*VLink, *Op) {
	op := newOp("vlink:connect")
	vl := &VLink{}
	ep.Connects++
	d.Dial(addr, func(c Conn, err error) {
		if err != nil {
			op.complete(0, err)
			return
		}
		vl.attach(c)
		op.complete(0, nil)
	})
	return vl, op
}

// ConnectWait is Connect + Wait, for proc-context callers.
func (ep *Endpoint) ConnectWait(p *vtime.Proc, driver string, addr Addr) (*VLink, error) {
	vl, op := ep.Connect(driver, addr)
	if _, err := op.Wait(p); err != nil {
		return nil, err
	}
	return vl, nil
}

// VListener accepts inbound VLinks.
type VListener struct {
	ep      *Endpoint
	dl      Listener
	backlog *vtime.Queue[*VLink]
}

// Listen binds a passive endpoint on the named driver.
func (ep *Endpoint) Listen(driver string, port int) (*VListener, error) {
	d, err := ep.Driver(driver)
	if err != nil {
		return nil, err
	}
	return ep.ListenDriver(d, port)
}

// ListenDriver is Listen on an explicit driver instance.
func (ep *Endpoint) ListenDriver(d Driver, port int) (*VListener, error) {
	dl, err := d.Listen(port)
	if err != nil {
		return nil, err
	}
	vl := &VListener{ep: ep, dl: dl,
		backlog: vtime.NewQueue[*VLink](fmt.Sprintf("vlisten:%d:%d", ep.node, port))}
	dl.SetAcceptHandler(func(c Conn) {
		ep.Accepts++
		v := &VLink{}
		v.attach(c)
		vl.backlog.Push(v)
	})
	return vl, nil
}

// Accept blocks until an inbound VLink arrives.
func (vl *VListener) Accept(p *vtime.Proc) *VLink { return vl.backlog.Pop(p) }

// SetAcceptHandler replaces the backlog with a direct callback.
func (vl *VListener) SetAcceptHandler(fn func(*VLink)) {
	vl.backlog.OnPush = func() {
		if v, ok := vl.backlog.TryPop(); ok {
			fn(v)
		}
	}
	// Drain anything already queued.
	for {
		v, ok := vl.backlog.TryPop()
		if !ok {
			break
		}
		fn(v)
	}
}

// Close unbinds the listener.
func (vl *VListener) Close() { vl.dl.Close() }

// ---------------------------------------------------------------------
// VLink: one established link.

// VLink is one established distributed-paradigm link. Its five
// operations mirror the paper's asynchronous VLink API; per-operation
// and per-byte abstraction costs are charged here, uniformly across
// drivers.
type VLink struct {
	c      Conn
	closed bool
	pool   []*Op // spent descriptors of the synchronous conveniences

	Reads, Writes int64
	BytesIn       int64
	BytesOut      int64
}

func (v *VLink) attach(c Conn) { v.c = c }

// Peer returns the remote node.
func (v *VLink) Peer() topology.NodeID { return v.c.Peer() }

// PostRead posts an asynchronous read into buf.
func (v *VLink) PostRead(buf []byte) *Op {
	op := v.op(opRead, "vlink:read")
	if v.closed {
		op.complete(0, ErrClosed)
		return op
	}
	v.Reads++
	v.c.PostRead(buf, op.done)
	return op
}

// PostWrite posts an asynchronous write of data.
func (v *VLink) PostWrite(data []byte) *Op {
	op := v.op(opWrite, "vlink:write")
	if v.closed {
		op.complete(0, ErrClosed)
		return op
	}
	v.Writes++
	op.buf = data
	kernelOf(v).Schedule(model.VLinkCost+model.VLinkPerByte.Cost(len(data)), op.step)
	return op
}

// PostWritev posts an asynchronous gather-write of a segment vector:
// the same abstraction cost and byte-stream effect as PostWrite of the
// flattened vector, without materializing it when the driver stack
// supports vectors. The vector is borrowed until the Op completes.
func (v *VLink) PostWritev(vec iovec.Vec) *Op {
	op := v.op(opWritev, "vlink:writev")
	if v.closed {
		op.complete(0, ErrClosed)
		return op
	}
	v.Writes++
	op.vec = vec
	kernelOf(v).Schedule(model.VLinkCost+model.VLinkPerByte.Cost(vec.Len()), op.step)
	return op
}

// WriteVec blocks p until the whole vector is accepted by the driver
// stack (the synchronous convenience over PostWritev). In practice one
// PostWritev accepts everything (drivers complete whole writes); the
// resume loop only slices on a partial acceptance.
func (v *VLink) WriteVec(p *vtime.Proc, vec iovec.Vec) (int, error) {
	total := 0
	size := vec.Len()
	for total < size {
		part, retained := vec, false
		if total > 0 {
			part, retained = vec.Slice(total, size-total), true
		}
		n, err := v.wait(p, v.PostWritev(part))
		if retained {
			part.Release()
		}
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close initiates an orderly shutdown.
func (v *VLink) Close() {
	if v.closed {
		return
	}
	v.closed = true
	v.c.Close()
}

// Fail tears the link down after a peer crash: future operations
// complete with ErrClosed immediately, and a pending read completes
// with the error when the driver supports crash injection (otherwise
// the link falls back to an orderly close).
func (v *VLink) Fail() {
	if v.closed {
		return
	}
	v.closed = true
	if f, ok := v.c.(Failer); ok {
		f.Fail(ErrClosed)
		return
	}
	v.c.Close()
}

// --- synchronous conveniences (used by personalities) ---

// Read blocks p for the next chunk of stream data.
func (v *VLink) Read(p *vtime.Proc, buf []byte) (int, error) {
	return v.wait(p, v.PostRead(buf))
}

// ReadFull blocks p until len(buf) bytes arrived (or EOF).
func (v *VLink) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := v.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, io.EOF
		}
	}
	return total, nil
}

// Write blocks p until data is fully accepted.
func (v *VLink) Write(p *vtime.Proc, data []byte) (int, error) {
	total := 0
	for total < len(data) {
		n, err := v.wait(p, v.PostWrite(data[total:]))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// kernelOf recovers the kernel through the driver conn; every driver
// conn embeds a kernel reference via the Kerneled interface.
func kernelOf(v *VLink) *vtime.Kernel {
	return v.c.(interface{ Kernel() *vtime.Kernel }).Kernel()
}
