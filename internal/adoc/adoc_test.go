package adoc_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"padico/internal/adoc"
	"padico/internal/topology"
	"padico/internal/vlink"
	"padico/internal/vlink/vlinktest"
	"padico/internal/vtime"
)

// loopPair builds an adoc-wrapped loopback pair on one node.
func loopPair(k *vtime.Kernel) (*adoc.Driver, *vlink.Endpoint) {
	ep := vlink.NewEndpoint(topology.NodeID(0))
	d := adoc.New(k, vlinktest.NewLoopbackDriver(k, 0))
	ep.AddDriver(d)
	return d, ep
}

func roundTrip(t *testing.T, payload []byte) (float64, []byte) {
	k := vtime.NewKernel()
	d, ep := loopPair(k)
	var got []byte
	if err := k.Run(func(p *vtime.Proc) {
		ln, err := ep.Listen("adoc", 1)
		if err != nil {
			t.Fatal(err)
		}
		done := vtime.NewWaitGroup("done")
		done.Add(1)
		k.Go("sink", func(q *vtime.Proc) {
			defer done.Done()
			v := ln.Accept(q)
			buf := make([]byte, 32<<10)
			for {
				n, err := v.Read(q, buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		})
		v, err := ep.ConnectWait(p, "adoc", vlink.Addr{Node: 0, Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		v.Write(p, payload)
		v.Close()
		done.Wait(p)
	}); err != nil {
		t.Fatal(err)
	}
	return d.Ratio(), got
}

func TestCompressibleDataShrinks(t *testing.T) {
	payload := bytes.Repeat([]byte("the quick brown fox jumps over the lazy grid "), 2000)
	ratio, got := roundTrip(t, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if ratio < 3 {
		t.Fatalf("compression ratio = %.2f on text, want > 3", ratio)
	}
}

func TestIncompressibleDataPassesThrough(t *testing.T) {
	payload := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	ratio, got := roundTrip(t, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("ratio = %.3f on random data, want ~1 (stored frames)", ratio)
	}
}

// Property: any payload round-trips exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint16, compressible bool) bool {
		size := int(n)%50000 + 1
		var payload []byte
		if compressible {
			payload = bytes.Repeat([]byte{byte(seed), byte(seed >> 8)}, size/2+1)[:size]
		} else {
			payload = make([]byte, size)
			rand.New(rand.NewSource(seed)).Read(payload)
		}
		tt := &testing.T{}
		_, got := roundTrip(tt, payload)
		return !tt.Failed() && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
