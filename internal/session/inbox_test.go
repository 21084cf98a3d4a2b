package session

import (
	"testing"

	"padico/internal/vtime"
)

// TestInboxStaysFIFOAndBounded: a receive end that always lags three
// messages behind keeps arrival order and its queued-byte count, and
// its backing array stays the size of the backlog, not of the run.
func TestInboxStaysFIFOAndBounded(t *testing.T) {
	r := msgRx{rxCond: vtime.NewCond("inbox")}
	next := 0
	for i := 0; i < 1000; i++ {
		r.push(rxMsg{segs: [][]byte{make([]byte, i%7), {byte(i)}}})
		if r.pending() <= 3 {
			continue
		}
		m := r.pop()
		if got := int(m.segs[1][0]); got != next%256 || len(m.segs[0]) != next%7 {
			t.Fatalf("pop %d returned message %d", next, got)
		}
		next++
		want := 0
		for j := next; j <= i; j++ {
			want += j%7 + 1
		}
		if r.queued != want {
			t.Fatalf("after pop %d: queued = %d, want %d", next, r.queued, want)
		}
	}
	if cap(r.inbox) > 8 {
		t.Fatalf("backing array grew to %d slots for a backlog of 3", cap(r.inbox))
	}
}
