package session_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"padico/internal/grid"
	"padico/internal/session"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// messageEnds are the message-oriented ends, each opened on Cluster(2).
var messageEnds = []struct {
	name     string
	src, dst topology.NodeID
	opts     []session.Option
}{
	{"pipe", 0, 0, nil},
	{"circuit", 0, 1, nil},
	{"adaptive", 0, 1, []session.Option{session.WithAdaptive()}},
}

// TestMessageEndConformance runs one script on every message-oriented
// end — the local pipe, the SAN circuit and an adaptive channel — so
// the receive rules they share cannot drift apart: segment-exact Recv
// buffered across calls, the stream view, ErrProtocol on a shape
// mismatch (which consumes nothing), EOF after the peer's Close once
// drained, and ErrClosed after the end's own Close.
func TestMessageEndConformance(t *testing.T) {
	for _, c := range messageEnds {
		t.Run(c.name, func(t *testing.T) {
			g := grid.Cluster(2)
			if err := g.K.Run(func(p *vtime.Proc) {
				a, err := g.Open(p, c.src, c.dst, c.opts...)
				if err != nil {
					t.Fatal(err)
				}
				conformanceScript(t, p, a, a.Remote())
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func conformanceScript(t *testing.T, p *vtime.Proc, a, b session.Channel) {
	t.Helper()
	recv := func(want ...string) [][]byte {
		t.Helper()
		sizes := make([]int, len(want))
		for i, w := range want {
			sizes[i] = len(w)
		}
		segs, err := b.Recv(p, sizes...)
		if err != nil {
			t.Fatalf("Recv%v: %v", sizes, err)
		}
		for i, w := range want {
			if string(segs[i]) != w {
				t.Fatalf("Recv%v segment %d = %q, want %q", sizes, i, segs[i], w)
			}
		}
		return segs
	}
	isErr := func(op string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", op, err, want)
		}
	}

	// One multi-segment Send, consumed by two Recvs.
	if err := a.Send(p, []byte("ab"), []byte("cde"), []byte("f")); err != nil {
		t.Fatal(err)
	}
	segs := recv("ab", "cde")
	_ = append(segs, []byte("!")) // must not reach the segment after them
	recv("f")

	// The stream view: one Write read back by Read, then ReadFull.
	data := payload(11, 1000)
	if _, err := a.Write(p, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := b.Read(p, got[:10]); n != 10 || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if n, err := b.ReadFull(p, got[10:]); n != len(data)-10 || err != nil {
		t.Fatalf("ReadFull = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stream view corrupted the payload")
	}

	// A wrong segment size is a protocol error that consumes nothing.
	if err := a.Send(p, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	_, err := b.Recv(p, 2)
	isErr("Recv(2) of a 3-byte segment", err, session.ErrProtocol)
	recv("xyz")

	// A stream read inside a partly consumed message is a protocol error.
	if err := a.Send(p, []byte("12"), []byte("34")); err != nil {
		t.Fatal(err)
	}
	recv("12")
	_, err = b.Read(p, got)
	isErr("Read inside a message", err, session.ErrProtocol)
	recv("34")

	// The peer's Close: what it sent drains, then io.EOF.
	if _, err := a.Write(p, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := b.ReadFull(p, got[:4]); err != nil || string(got[:4]) != "tail" {
		t.Fatalf("drain after the peer's Close: %q, %v", got[:4], err)
	}
	_, err = b.Read(p, got)
	isErr("Read after the peer's Close", err, io.EOF)
	_, err = b.Recv(p, 1)
	isErr("Recv after the peer's Close", err, io.EOF)

	// The end's own Close.
	b.Close()
	_, err = b.Recv(p, 1)
	isErr("Recv after Close", err, session.ErrClosed)
	_, err = b.Read(p, got)
	isErr("Read after Close", err, session.ErrClosed)
	isErr("Send after Close", b.Send(p, []byte("x")), session.ErrClosed)
}

// TestEmptySendCarriesNothing: a Send with no segments is no message
// to Recv on any message-oriented end, as an empty gather-write is
// none on a stream (the receive end used to index its missing first
// segment and panic).
func TestEmptySendCarriesNothing(t *testing.T) {
	for _, c := range messageEnds {
		g := grid.Cluster(2)
		if err := g.K.Run(func(p *vtime.Proc) {
			a, err := g.Open(p, c.src, c.dst, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send(p); err != nil {
				t.Fatal(err)
			}
			if err := a.Send(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if segs, err := a.Remote().Recv(p, 1); err != nil || string(segs[0]) != "x" {
				t.Fatalf("%s: Recv after an empty Send = %q, %v", c.name, segs, err)
			}
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
