// Flight recorder: a bounded ring of recent structured events per hub,
// dumped automatically when something goes wrong — a transfer exhausts
// its retries, an adaptive-send watchdog fires, the kernel deadlocks or
// a proc panics. Chaos and failure-scenario work gets a post-mortem of
// the control-plane events leading up to the fault for free.
//
// Events are value types holding only literal strings and small
// integers, so noting costs no allocation once the ring exists (the
// ring itself is allocated lazily on the first Note).
package telemetry

import (
	"fmt"
	"io"
	"os"

	"padico/internal/vtime"
)

// flightRing is the ring capacity: enough to span the interesting
// recent past without holding a whole run.
const flightRing = 256

// defaultDumpLimit bounds stderr noise when many faults trip in one run
// (fault-injection tests): later dumps are counted but suppressed.
const defaultDumpLimit = 2

// FlightEvent is one recorded control-plane event.
type FlightEvent struct {
	At       vtime.Time
	Cat, Msg string // literal strings only — no formatting at Note time
	Node     int
	V1, V2   int64
}

// Note records an event in the flight ring. Safe on a nil hub.
func (h *Hub) Note(cat, msg string, node int, v1, v2 int64) {
	if h == nil {
		return
	}
	if h.flight == nil {
		h.flight = make([]FlightEvent, flightRing)
	}
	h.flight[h.flightIdx] = FlightEvent{At: h.k.Now(), Cat: cat, Msg: msg, Node: node, V1: v1, V2: v2}
	h.flightIdx = (h.flightIdx + 1) % flightRing
	if h.flightLen < flightRing {
		h.flightLen++
	}
}

// Flight returns the recorded events, oldest first.
func (h *Hub) Flight() []FlightEvent {
	if h == nil || h.flightLen == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, h.flightLen)
	start := (h.flightIdx - h.flightLen + flightRing) % flightRing
	for i := 0; i < h.flightLen; i++ {
		out = append(out, h.flight[(start+i)%flightRing])
	}
	return out
}

// SetFlightSink redirects dumps (default os.Stderr).
func (h *Hub) SetFlightSink(w io.Writer) {
	if h != nil {
		h.flightSink = w
	}
}

// DumpFlight writes the ring, oldest first, to the flight sink. Called
// automatically on failure triggers; callable manually. Past the hub's
// dump limit (defaultDumpLimit), dumps print a one-line notice.
func (h *Hub) DumpFlight(reason string) {
	if h == nil {
		return
	}
	w := h.flightSink
	if w == nil {
		w = os.Stderr
	}
	h.dumps++
	if h.dumps > defaultDumpLimit {
		fmt.Fprintf(w, "telemetry: flight dump suppressed (%d so far): %s\n", h.dumps, reason)
		return
	}
	fmt.Fprintf(w, "=== flight recorder dump @ %v: %s ===\n", h.k.Now(), reason)
	for _, e := range h.Flight() {
		fmt.Fprintf(w, "  %12v  %-10s node=%-3d %s (%d, %d)\n", e.At, e.Cat, e.Node, e.Msg, e.V1, e.V2)
	}
	fmt.Fprintf(w, "=== end flight dump (%d events) ===\n", h.flightLen)
}
