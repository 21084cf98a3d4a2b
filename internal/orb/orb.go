// Package orb implements the distributed-paradigm middleware of the
// paper's evaluation: a CORBA-like ORB with CDR marshalling, a
// GIOP-shaped request/reply protocol, stringified object references
// (IORs) and a basic object adapter. It runs over VLink — through
// SysWrap in PadicoTM terms — so it transparently uses whatever network
// and method the selector picked (§4.3: omniORB, Mico, ORBacus were
// ported "with no change in their code").
//
// Four performance profiles reproduce the published implementations:
// omniORB 3/4 marshal in place (zero-copy), Mico and ORBacus "always
// copy data for marshalling and unmarshalling" (§5) — which is exactly
// what separates their 55-63 MB/s from omniORB's 236-238 MB/s in
// Fig. 3 and Table 1.
package orb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"padico/internal/iovec"
	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrBadIOR    = errors.New("orb: malformed IOR")
	ErrNoServant = errors.New("orb: no servant for object key")
	ErrNoOp      = errors.New("orb: no such operation")
)

// Profile captures one CORBA implementation's performance behaviour.
type Profile struct {
	Name        string
	RequestCost time.Duration // per message per side (marshal/dispatch)
	PerByte     model.PerByte // per payload byte per side
	Copying     bool          // marshalling copies payloads (Mico/ORBacus)
}

// The implementations measured in the paper.
var (
	OmniORB3 = Profile{Name: "omniORB-3.0.2", RequestCost: model.OmniORB3RequestCost, PerByte: model.OmniORB3PerByte}
	OmniORB4 = Profile{Name: "omniORB-4.0.0", RequestCost: model.OmniORB4RequestCost, PerByte: model.OmniORB4PerByte}
	Mico     = Profile{Name: "Mico-2.3.7", RequestCost: model.MicoRequestCost, PerByte: model.MicoCopyPerByte, Copying: true}
	ORBacus  = Profile{Name: "ORBacus-4.0.5", RequestCost: model.ORBacusRequestCost, PerByte: model.ORBacusCopyPerByte, Copying: true}
)

// ---------------------------------------------------------------------
// CDR marshalling (big-endian subset).

// Encoder marshals values CDR-style.
type Encoder struct{ buf []byte }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the marshalled body.
func (e *Encoder) Bytes() []byte { return e.buf }

// PutU32 appends an unsigned long.
func (e *Encoder) PutU32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// PutU64 appends an unsigned long long.
func (e *Encoder) PutU64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// PutF64 appends a double.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutU32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed octet sequence.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutF64Seq appends a sequence<double>.
func (e *Encoder) PutF64Seq(v []float64) {
	e.PutU32(uint32(len(v)))
	for _, f := range v {
		e.PutF64(f)
	}
}

// Decoder unmarshals CDR bodies.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a marshalled body.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// U32 reads an unsigned long.
func (d *Decoder) U32() uint32 {
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads an unsigned long long.
func (d *Decoder) U64() uint64 {
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// F64 reads a double.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a string.
func (d *Decoder) String() string {
	n := int(d.U32())
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Bytes reads an octet sequence.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// F64Seq reads a sequence<double>.
func (d *Decoder) F64Seq() []float64 {
	n := int(d.U32())
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// ---------------------------------------------------------------------
// GIOP-shaped wire protocol.

type msgKind byte

const (
	kindRequest msgKind = iota
	kindReply
	kindException
)

// message header: [1B kind][4B reqID][4B bodyLen]
const msgHdrLen = 9

// ---------------------------------------------------------------------
// ORB.

// Method implements one operation of a servant.
type Method func(p *vtime.Proc, args *Decoder, reply *Encoder) error

// Servant is an object implementation: operation name -> method.
type Servant map[string]Method

// ORB is the per-node object request broker.
type ORB struct {
	k        *vtime.Kernel
	ep       *vlink.Endpoint
	profile  Profile
	driver   string
	port     int
	servants map[string]Servant
	conns    map[vlink.Addr]*clientConn

	Requests int64
	Served   int64
}

// New creates an ORB with the given profile, serving on the driver/port
// (its "IIOP endpoint"). Start the server with Activate.
func New(k *vtime.Kernel, ep *vlink.Endpoint, profile Profile, driver string, port int) *ORB {
	return &ORB{
		k: k, ep: ep, profile: profile, driver: driver, port: port,
		servants: make(map[string]Servant),
		conns:    make(map[vlink.Addr]*clientConn),
	}
}

// Profile returns the ORB's implementation profile.
func (o *ORB) Profile() Profile { return o.profile }

// RegisterServant binds an object key to a servant (POA activation).
func (o *ORB) RegisterServant(key string, s Servant) string {
	o.servants[key] = s
	return o.IOR(key)
}

// IOR returns the stringified reference for a local object key.
func (o *ORB) IOR(key string) string {
	return fmt.Sprintf("IOR:%d:%d/%s", o.ep.Node(), o.port, key)
}

// ParseIOR splits a stringified reference.
func ParseIOR(ior string) (node topology.NodeID, port int, key string, err error) {
	if !strings.HasPrefix(ior, "IOR:") {
		return 0, 0, "", ErrBadIOR
	}
	rest := ior[4:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return 0, 0, "", ErrBadIOR
	}
	key = rest[slash+1:]
	hostPort := strings.Split(rest[:slash], ":")
	if len(hostPort) != 2 {
		return 0, 0, "", ErrBadIOR
	}
	n, err1 := strconv.Atoi(hostPort[0])
	pt, err2 := strconv.Atoi(hostPort[1])
	if err1 != nil || err2 != nil {
		return 0, 0, "", ErrBadIOR
	}
	return topology.NodeID(n), pt, key, nil
}

// Activate starts the server loop on the ORB's endpoint.
func (o *ORB) Activate() error {
	ln, err := o.ep.Listen(o.driver, o.port)
	if err != nil {
		return err
	}
	ln.SetAcceptHandler(func(v *vlink.VLink) { o.serveConn(v) })
	return nil
}

// serveConn pumps one inbound connection.
func (o *ORB) serveConn(v *vlink.VLink) {
	fr := &framer{}
	buf := make([]byte, 64<<10)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		fr.feed(buf[:n], func(kind msgKind, reqID uint32, body []byte) {
			o.dispatch(v, kind, reqID, body)
		})
		if err != nil {
			return
		}
		v.PostRead(buf).SetHandler(pump)
	}
	v.PostRead(buf).SetHandler(pump)
}

// dispatch runs one request through the servant and replies.
func (o *ORB) dispatch(v *vlink.VLink, kind msgKind, reqID uint32, body []byte) {
	if kind != kindRequest {
		return
	}
	if o.profile.Copying {
		body = append([]byte(nil), body...) // the Mico/ORBacus extra copy
	}
	// Unmarshal/dispatch cost, then servant execution on a fresh proc.
	cost := o.profile.RequestCost + o.profile.PerByte.Cost(len(body))
	o.k.Schedule(cost, func() {
		o.k.Go("orb-dispatch", func(p *vtime.Proc) {
			dec := NewDecoder(body)
			key := dec.String()
			op := dec.String()
			reply := NewEncoder()
			var status msgKind = kindReply
			srv, ok := o.servants[key]
			if !ok {
				status = kindException
				reply.PutString(ErrNoServant.Error())
			} else if m, ok := srv[op]; !ok {
				status = kindException
				reply.PutString(ErrNoOp.Error())
			} else if err := m(p, dec, reply); err != nil {
				status = kindException
				reply = NewEncoder()
				reply.PutString(err.Error())
			}
			o.Served++
			out := reply.Bytes()
			if o.profile.Copying {
				out = append([]byte(nil), out...)
			}
			// Reply marshal cost, then send.
			p.Consume(o.profile.RequestCost + o.profile.PerByte.Cost(len(out)))
			v.PostWritev(message(status, reqID, out))
		})
	})
}

// ---------------------------------------------------------------------
// Client side.

// ObjectRef is a client-side reference to a remote object.
type ObjectRef struct {
	orb  *ORB
	node topology.NodeID
	port int
	key  string
}

// Resolve turns an IOR into an invocable reference.
func (o *ORB) Resolve(ior string) (*ObjectRef, error) {
	node, port, key, err := ParseIOR(ior)
	if err != nil {
		return nil, err
	}
	return &ObjectRef{orb: o, node: node, port: port, key: key}, nil
}

// clientConn multiplexes requests over one connection.
type clientConn struct {
	v       *vlink.VLink
	nextID  uint32
	waiters map[uint32]*vtime.Future[replyMsg]
}

type replyMsg struct {
	status msgKind
	body   []byte
}

func (o *ORB) connTo(p *vtime.Proc, node topology.NodeID, port int) (*clientConn, error) {
	addr := vlink.Addr{Node: node, Port: port}
	if cc, ok := o.conns[addr]; ok {
		return cc, nil
	}
	v, err := o.ep.ConnectWait(p, o.driver, addr)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{v: v, waiters: make(map[uint32]*vtime.Future[replyMsg])}
	o.conns[addr] = cc
	fr := &framer{}
	buf := make([]byte, 64<<10)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		fr.feed(buf[:n], func(kind msgKind, reqID uint32, body []byte) {
			if f, ok := cc.waiters[reqID]; ok {
				delete(cc.waiters, reqID)
				if o.profile.Copying {
					body = append([]byte(nil), body...)
				}
				f.Complete(replyMsg{status: kind, body: body}, nil)
			}
		})
		if err != nil {
			return
		}
		v.PostRead(buf).SetHandler(pump)
	}
	v.PostRead(buf).SetHandler(pump)
	return cc, nil
}

// Invoke performs a synchronous request; args may be nil.
func (r *ObjectRef) Invoke(p *vtime.Proc, op string, args *Encoder) (*Decoder, error) {
	o := r.orb
	cc, err := o.connTo(p, r.node, r.port)
	if err != nil {
		return nil, err
	}
	o.Requests++
	target := &Encoder{buf: make([]byte, 0, 8+len(r.key)+len(op))}
	target.PutString(r.key)
	target.PutString(op)
	// The marshalled arguments ride behind the target as a second
	// segment, by reference: the caller's encoder is lent until the
	// reply is in, which is when Invoke returns.
	payload, size := [][]byte{target.buf}, len(target.buf)
	if args != nil {
		payload, size = append(payload, args.buf), size+len(args.buf)
	}
	if o.profile.Copying {
		payload = [][]byte{bytes.Join(payload, nil)}
	}
	// Client marshal cost.
	p.Consume(o.profile.RequestCost + o.profile.PerByte.Cost(size))
	cc.nextID++
	id := cc.nextID
	f := vtime.NewFuture[replyMsg]("orb:reply")
	cc.waiters[id] = f
	cc.v.PostWritev(message(kindRequest, id, payload...))
	rep, _ := f.Wait(p)
	// Client unmarshal cost.
	p.Consume(o.profile.RequestCost + o.profile.PerByte.Cost(len(rep.body)))
	if rep.status == kindException {
		return nil, errors.New(NewDecoder(rep.body).String())
	}
	return NewDecoder(rep.body), nil
}

// ---------------------------------------------------------------------
// Framing shared by both sides.

// message builds one message as a gather vector: the header, then the
// body parts by reference — nothing is concatenated on the way to the
// driver. The parts are lent until the write completes. Header and
// segment list share one allocation.
func message(kind msgKind, reqID uint32, parts ...[]byte) iovec.Vec {
	f := &frame{}
	f.hdr[0] = byte(kind)
	binary.BigEndian.PutUint32(f.hdr[1:], reqID)
	v := iovec.Vec{Segs: append(f.segs[:0], iovec.Seg{B: f.hdr[:]})}
	for _, b := range parts {
		v.Segs = append(v.Segs, iovec.Seg{B: b})
	}
	binary.BigEndian.PutUint32(f.hdr[5:], uint32(v.Len()-msgHdrLen))
	return v
}

type frame struct {
	hdr  [msgHdrLen]byte
	segs [3]iovec.Seg // a request's header, target and arguments
}

// framer reassembles messages from stream chunks: the header first,
// then a body allocated at the size the header gives, every chunk
// copied once into its place.
type framer struct {
	hdr  [msgHdrLen]byte
	body []byte // nil until the header is complete
	got  int    // bytes of hdr, then of body, filled so far
}

func (fr *framer) feed(data []byte, emit func(kind msgKind, reqID uint32, body []byte)) {
	for {
		if fr.body == nil {
			if !iovec.Fill(fr.hdr[:], &fr.got, &data) {
				return
			}
			fr.body, fr.got = make([]byte, binary.BigEndian.Uint32(fr.hdr[5:])), 0
		}
		if !iovec.Fill(fr.body, &fr.got, &data) {
			return
		}
		body := fr.body
		fr.body, fr.got = nil, 0
		emit(msgKind(fr.hdr[0]), binary.BigEndian.Uint32(fr.hdr[1:]), body)
	}
}
