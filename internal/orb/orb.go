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

// Encoder marshals values CDR-style: the cursor's fixed-width puts
// (PutU32, PutU64) plus CDR's doubles and sequences.
type Encoder struct{ iovec.Writer }

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// PutF64 appends a double.
func (e *Encoder) PutF64(v float64) { e.PutU64(math.Float64bits(v)) }

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) { e.PutBytes([]byte(s)) }

// PutBytes appends a length-prefixed octet sequence. The octets go in
// by append: a bulk argument is copied once, into an array that is not
// zeroed first.
func (e *Encoder) PutBytes(b []byte) {
	e.PutU32(uint32(len(b)))
	e.Writer = *iovec.NewWriter(append(e.Bytes(), b...))
}

// PutF64Seq appends a sequence<double>.
func (e *Encoder) PutF64Seq(v []float64) {
	e.PutU32(uint32(len(v)))
	for _, f := range v {
		e.PutF64(f)
	}
}

// Decoder unmarshals CDR bodies: the cursor's fixed-width reads (U32,
// U64) plus CDR's doubles and sequences. A truncated body reads as zero
// values from the point it runs out, and Err reports it.
type Decoder struct{ iovec.Reader }

// NewDecoder wraps a marshalled body.
func NewDecoder(b []byte) *Decoder { return &Decoder{*iovec.NewReader(b)} }

// F64 reads a double.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Bytes reads an octet sequence (a view into the body).
func (d *Decoder) Bytes() []byte { return d.Next(int(d.U32())) }

// F64Seq reads a sequence<double>. Its length is checked against the
// body before anything is allocated: one the body does not hold reads
// as empty.
func (d *Decoder) F64Seq() []float64 {
	r := iovec.NewReader(d.Next(8 * int(d.U32())))
	out := make([]float64, r.Len()/8)
	for i := range out {
		out[i] = math.Float64frombits(r.U64())
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
	readMessages(v, func(kind msgKind, reqID uint32, body []byte) {
		o.dispatch(v, kind, reqID, body)
	})
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
			} else if err := errors.Join(m(p, dec, reply), dec.Err()); err != nil {
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
	readMessages(v, func(kind msgKind, reqID uint32, body []byte) {
		if f, ok := cc.waiters[reqID]; ok {
			delete(cc.waiters, reqID)
			if o.profile.Copying {
				body = append([]byte(nil), body...)
			}
			f.Complete(replyMsg{status: kind, body: body}, nil)
		}
	})
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
	target := &Encoder{*iovec.NewWriter(make([]byte, 0, 8+len(r.key)+len(op)))}
	target.PutString(r.key)
	target.PutString(op)
	// The marshalled arguments ride behind the target as a second
	// segment, by reference: the caller's encoder is lent until the
	// reply is in, which is when Invoke returns.
	payload, size := [][]byte{target.Bytes()}, len(target.Bytes())
	if args != nil {
		payload, size = append(payload, args.Bytes()), size+len(args.Bytes())
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
	v := iovec.Vec{Segs: append(f.segs[:0], iovec.Seg{B: f.hdr[:]})}
	for _, b := range parts {
		v.Segs = append(v.Segs, iovec.Seg{B: b})
	}
	iovec.NewWriter(f.hdr[:0]).PutU8(byte(kind)).PutU32(reqID).PutU32(uint32(v.Len() - msgHdrLen))
	return v
}

type frame struct {
	hdr  [msgHdrLen]byte
	segs [3]iovec.Seg // a request's header, target and arguments
}

// readMessages pumps v's byte stream through a framer and hands every
// complete message to emit.
func readMessages(v *vlink.VLink, emit func(kind msgKind, reqID uint32, body []byte)) {
	fr := &framer{}
	buf := make([]byte, 64<<10)
	var pump func(n int, err error)
	pump = func(n int, err error) {
		fr.feed(buf[:n], emit)
		if err == nil {
			v.PostRead(buf).SetHandler(pump)
		}
	}
	v.PostRead(buf).SetHandler(pump)
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
			fr.body, fr.got = make([]byte, iovec.NewReader(fr.hdr[5:]).U32()), 0
		}
		if !iovec.Fill(fr.body, &fr.got, &data) {
			return
		}
		body := fr.body
		fr.body, fr.got = nil, 0
		hdr := iovec.NewReader(fr.hdr[:])
		emit(msgKind(hdr.U8()), hdr.U32(), body)
	}
}
