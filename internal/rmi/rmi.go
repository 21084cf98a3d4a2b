// Package rmi models the Java side of the paper's evaluation: "Java
// sockets" (a managed-runtime socket whose per-operation cost reflects
// runtime crossings and heap staging — Kaffe in the paper, ported into
// PadicoTM with small changes) and a minimal RMI layer (registry,
// remote invocation with serialized arguments) on top of them.
//
// Table 1 measures Java sockets at 40 µs one-way latency yet 237.9 MB/s
// bandwidth: the VM crossing is expensive per call, but the data path
// stays nearly zero-copy. JavaSocket reproduces both constants.
package rmi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"padico/internal/model"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vtime"
)

// Exported errors.
var (
	ErrNotBound = errors.New("rmi: name not bound")
	ErrNoMethod = errors.New("rmi: no such method")
)

// JavaSocket wraps a VLink with the managed-runtime cost profile.
type JavaSocket struct {
	V *vlink.VLink
	k *vtime.Kernel
}

// NewJavaSocket wraps an established VLink.
func NewJavaSocket(k *vtime.Kernel, v *vlink.VLink) *JavaSocket {
	return &JavaSocket{V: v, k: k}
}

// Write sends all of data, charging the VM-crossing and heap-staging
// costs.
func (s *JavaSocket) Write(p *vtime.Proc, data []byte) (int, error) {
	p.Consume(model.JavaSocketOpCost + model.JavaSocketPerByte.Cost(len(data)))
	return s.V.Write(p, data)
}

// Read receives available bytes.
func (s *JavaSocket) Read(p *vtime.Proc, buf []byte) (int, error) {
	n, err := s.V.Read(p, buf)
	p.Consume(model.JavaSocketOpCost + model.JavaSocketPerByte.Cost(n))
	return n, err
}

// ReadFull reads exactly len(buf) bytes.
func (s *JavaSocket) ReadFull(p *vtime.Proc, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := s.Read(p, buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Close shuts the socket down.
func (s *JavaSocket) Close() { s.V.Close() }

// ---------------------------------------------------------------------
// RMI: registry + remote invocation over Java sockets.

// RemoteMethod executes one remote call: serialized args in, serialized
// result out.
type RemoteMethod func(p *vtime.Proc, args []byte) ([]byte, error)

// RemoteObject is a method table.
type RemoteObject map[string]RemoteMethod

// Registry is the per-node RMI runtime (rmiregistry + transport).
type Registry struct {
	k     *vtime.Kernel
	ep    *vlink.Endpoint
	port  int
	names map[string]RemoteObject

	Calls int64
}

// NewRegistry creates and activates an RMI registry on driver/port.
func NewRegistry(k *vtime.Kernel, ep *vlink.Endpoint, driver string, port int) (*Registry, error) {
	r := &Registry{k: k, ep: ep, port: port, names: make(map[string]RemoteObject)}
	ln, err := ep.Listen(driver, port)
	if err != nil {
		return nil, err
	}
	ln.SetAcceptHandler(func(v *vlink.VLink) { r.serve(v) })
	return r, nil
}

// Bind publishes an object under a name.
func (r *Registry) Bind(name string, obj RemoteObject) { r.names[name] = obj }

// serve handles one inbound connection: [nameLen][name][methLen][meth]
// [argLen][args] -> [status][resLen][res], length-framed.
func (r *Registry) serve(v *vlink.VLink) {
	r.k.GoDaemon("rmi-serve", func(p *vtime.Proc) {
		for {
			req, err := readFrame(p, v)
			if err != nil {
				return
			}
			// Server-side deserialization cost.
			p.Consume(model.RMIRequestCost + model.SerializeRMIPerByte.Cost(len(req)))
			dec := decoder{buf: req}
			name := dec.str()
			meth := dec.str()
			args := dec.bytes()
			var status byte
			var res []byte
			obj, ok := r.names[name]
			if !ok {
				status, res = 1, []byte(ErrNotBound.Error())
			} else if m, ok := obj[meth]; !ok {
				status, res = 1, []byte(ErrNoMethod.Error())
			} else if out, err := m(p, args); err != nil {
				status, res = 1, []byte(err.Error())
			} else {
				res = out
			}
			r.Calls++
			p.Consume(model.RMIRequestCost + model.SerializeRMIPerByte.Cost(len(res)))
			reply := make([]byte, 1+len(res))
			reply[0] = status
			copy(reply[1:], res)
			writeFrame(p, v, reply)
		}
	})
}

// Stub is a client-side remote reference.
type Stub struct {
	k    *vtime.Kernel
	v    *vlink.VLink
	name string
}

// Lookup dials the registry on (node, port) and returns a stub for a
// bound name.
func Lookup(p *vtime.Proc, ep *vlink.Endpoint, driver string, node topology.NodeID, port int, name string) (*Stub, error) {
	v, err := ep.ConnectWait(p, driver, vlink.Addr{Node: node, Port: port})
	if err != nil {
		return nil, err
	}
	return &Stub{k: p.Kernel(), v: v, name: name}, nil
}

// Call invokes a remote method synchronously.
func (s *Stub) Call(p *vtime.Proc, method string, args []byte) ([]byte, error) {
	var enc encoder
	enc.str(s.name)
	enc.str(method)
	enc.bytes(args)
	p.Consume(model.RMIRequestCost + model.SerializeRMIPerByte.Cost(len(enc.buf)))
	writeFrame(p, s.v, enc.buf)
	reply, err := readFrame(p, s.v)
	if err != nil {
		return nil, err
	}
	p.Consume(model.RMIRequestCost + model.SerializeRMIPerByte.Cost(len(reply)))
	if reply[0] != 0 {
		return nil, fmt.Errorf("rmi: remote exception: %s", reply[1:])
	}
	return reply[1:], nil
}

// ---------------------------------------------------------------------
// Framing and mini-serialization.

func writeFrame(p *vtime.Proc, v *vlink.VLink, body []byte) {
	hdr := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(hdr, uint32(len(body)))
	v.Write(p, append(hdr, body...))
}

func readFrame(p *vtime.Proc, v *vlink.VLink) ([]byte, error) {
	var hdr [4]byte
	if _, err := v.ReadFull(p, hdr[:]); err != nil {
		return nil, err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := v.ReadFull(p, body); err != nil {
		return nil, err
	}
	return body, nil
}

type encoder struct{ buf []byte }

func (e *encoder) str(s string) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	e.buf = append(e.buf, l[:]...)
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	e.buf = append(e.buf, l[:]...)
	e.buf = append(e.buf, b...)
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) bytes() []byte {
	n := int(binary.BigEndian.Uint32(d.buf[d.off:]))
	d.off += 4
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
