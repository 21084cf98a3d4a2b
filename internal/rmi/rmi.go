// Package rmi models the Java side of the paper's evaluation: "Java
// sockets", a managed-runtime socket whose per-operation cost reflects
// runtime crossings and heap staging (Kaffe in the paper, ported into
// PadicoTM with small changes).
//
// Table 1 measures Java sockets at 40 µs one-way latency yet 237.9 MB/s
// bandwidth: the VM crossing is expensive per call, but the data path
// stays nearly zero-copy. JavaSocket reproduces both constants.
package rmi

import (
	"padico/internal/model"
	"padico/internal/vlink"
	"padico/internal/vtime"
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
