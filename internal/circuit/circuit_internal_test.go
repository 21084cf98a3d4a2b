package circuit

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Property: stream framing reassembles any segment vectors across any
// chunk boundaries.
func TestQuickFrameParser(t *testing.T) {
	f := func(msgs [][][]byte, cuts []uint8) bool {
		if len(msgs) == 0 || len(msgs) > 6 {
			return true
		}
		var wire []byte
		for _, segs := range msgs {
			if len(segs) > 8 {
				return true
			}
			wire = append(wire, frameMessage(segs)...)
		}
		fp := &frameParser{}
		var gotSegs [][][]byte
		emit := func(segs [][]byte) { gotSegs = append(gotSegs, segs) }
		off, ci := 0, 0
		for off < len(wire) {
			n := 1
			if len(cuts) > 0 {
				n = int(cuts[ci%len(cuts)])%61 + 1
				ci++
			}
			if off+n > len(wire) {
				n = len(wire) - off
			}
			fp.feed(wire[off:off+n], emit)
			off += n
		}
		if len(gotSegs) != len(msgs) {
			return false
		}
		for i, segs := range msgs {
			if len(gotSegs[i]) != len(segs) {
				return false
			}
			for j := range segs {
				if !bytes.Equal(gotSegs[i][j], segs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
