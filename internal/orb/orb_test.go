package orb

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: CDR encode/decode round-trips arbitrary primitive mixes.
func TestQuickCDRRoundTrip(t *testing.T) {
	f := func(u32 uint32, u64 uint64, f64 float64, s string, b []byte, fs []float64) bool {
		if math.IsNaN(f64) {
			return true // NaN != NaN; CDR carries bits fine but compare fails
		}
		e := NewEncoder()
		e.PutU32(u32)
		e.PutU64(u64)
		e.PutF64(f64)
		e.PutString(s)
		e.PutBytes(b)
		e.PutF64Seq(fs)
		d := NewDecoder(e.Bytes())
		if d.U32() != u32 || d.U64() != u64 || d.F64() != f64 || d.String() != s {
			return false
		}
		got := d.Bytes()
		if len(got) != len(b) {
			return false
		}
		for i := range b {
			if got[i] != b[i] {
				return false
			}
		}
		seq := d.F64Seq()
		if len(seq) != len(fs) {
			return false
		}
		for i := range fs {
			if seq[i] != fs[i] && !(math.IsNaN(seq[i]) && math.IsNaN(fs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIORRoundTrip(t *testing.T) {
	cases := []struct {
		node int
		port int
		key  string
	}{
		{0, 5000, "counter"},
		{42, 1, "a/b/c"},
		{7, 65535, ""},
	}
	for _, c := range cases {
		o := &ORB{port: c.port}
		o.ep = nil
		_ = o
		ior := "IOR:" + itoa(c.node) + ":" + itoa(c.port) + "/" + c.key
		n, pt, k, err := ParseIOR(ior)
		if err != nil || int(n) != c.node || pt != c.port || k != c.key {
			t.Fatalf("ParseIOR(%q) = %v %v %q %v", ior, n, pt, k, err)
		}
	}
	for _, bad := range []string{"", "IOR:", "IOR:1/x", "IOR:a:b/c", "http://x"} {
		if _, _, _, err := ParseIOR(bad); err == nil {
			t.Fatalf("ParseIOR(%q) accepted", bad)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Property: the GIOP framer reassembles messages across arbitrary chunk
// boundaries.
func TestQuickFramerReassembly(t *testing.T) {
	f := func(bodies [][]byte, cuts []uint8) bool {
		if len(bodies) == 0 || len(bodies) > 10 {
			return true
		}
		var wire []byte
		for i, b := range bodies {
			wire = message(kindRequest, uint32(i), b).AppendFrom(wire, 0)
		}
		fr := &framer{}
		var got [][]byte
		var ids []uint32
		emit := func(k msgKind, id uint32, body []byte) {
			got = append(got, body)
			ids = append(ids, id)
		}
		// Feed in arbitrary-size chunks.
		off := 0
		ci := 0
		for off < len(wire) {
			n := 1
			if len(cuts) > 0 {
				n = int(cuts[ci%len(cuts)])%97 + 1
				ci++
			}
			if off+n > len(wire) {
				n = len(wire) - off
			}
			fr.feed(wire[off:off+n], emit)
			off += n
		}
		if len(got) != len(bodies) {
			return false
		}
		for i, b := range bodies {
			if ids[i] != uint32(i) || len(got[i]) != len(b) {
				return false
			}
			for j := range b {
				if got[i][j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesDistinguishCopying(t *testing.T) {
	if OmniORB3.Copying || OmniORB4.Copying {
		t.Fatal("omniORB profiles must be zero-copy")
	}
	if !Mico.Copying || !ORBacus.Copying {
		t.Fatal("Mico/ORBacus profiles must copy (paper §5)")
	}
	if Mico.PerByte <= OmniORB4.PerByte*10 {
		t.Fatal("copying profile per-byte cost should dwarf zero-copy")
	}
}
