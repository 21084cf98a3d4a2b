package madeleine_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"padico/internal/drivers/gm"
	"padico/internal/madapi"
	"padico/internal/madeleine"
	"padico/internal/model"
	"padico/internal/netsim"
	"padico/internal/topology"
	"padico/internal/vtime"
)

// pair builds two Madeleine adapters over GM on a fresh kernel and
// returns open channel 0 on both.
func pair(k *vtime.Kernel) (a, b madapi.Channel, err error) {
	group := []int{0, 1}
	xb := netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	ada := madeleine.New(k, madeleine.NewGM(gm.OpenNIC(k, xb, 0), group), 0, 2)
	adb := madeleine.New(k, madeleine.NewGM(gm.OpenNIC(k, xb, 1), group), 1, 2)
	if a, err = ada.Open(0); err != nil {
		return nil, nil, err
	}
	if b, err = adb.Open(0); err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// mustPair is pair for tests that cannot go on without the channels.
func mustPair(t *testing.T, k *vtime.Kernel) (a, b madapi.Channel) {
	t.Helper()
	a, b, err := pair(k)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// GM is the only Madeleine backend; each backend runs as its own subtest.
func TestPackUnpackRoundTripAllBackends(t *testing.T) {
	t.Run("gm", func(t *testing.T) {
		k := vtime.NewKernel()
		cha, chb := mustPair(t, k)
		if err := k.Run(func(p *vtime.Proc) {
			out := cha.BeginPacking(1)
			out.Pack([]byte("hdr"), madapi.SendSafer)
			out.Pack([]byte("payload-data"), madapi.SendCheaper)
			out.EndPacking()

			in := chb.BeginUnpacking(p)
			if in.Src() != 0 {
				t.Errorf("src = %d", in.Src())
			}
			hdr := in.Unpack(3, madapi.ReceiveExpress)
			body := in.Unpack(12, madapi.ReceiveCheaper)
			in.EndUnpacking()
			if string(hdr) != "hdr" || string(body) != "payload-data" {
				t.Errorf("got %q %q", hdr, body)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLargeMessagesAllBackends(t *testing.T) {
	t.Run("gm", func(t *testing.T) {
		k := vtime.NewKernel()
		cha, chb := mustPair(t, k)
		msg := make([]byte, 1<<20)
		rand.New(rand.NewSource(1)).Read(msg)
		if err := k.Run(func(p *vtime.Proc) {
			for i := 0; i < 3; i++ {
				out := cha.BeginPacking(1)
				out.Pack(msg, madapi.SendLater)
				out.EndPacking()
			}
			for i := 0; i < 3; i++ {
				in := chb.BeginUnpacking(p)
				got := in.Unpack(len(msg), madapi.ReceiveCheaper)
				in.EndUnpacking()
				if !bytes.Equal(got, msg) {
					t.Fatalf("iteration %d corrupted", i)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendSaferAllowsBufferReuse(t *testing.T) {
	k := vtime.NewKernel()
	cha, chb := mustPair(t, k)
	if err := k.Run(func(p *vtime.Proc) {
		buf := []byte("original")
		out := cha.BeginPacking(1)
		out.Pack(buf, madapi.SendSafer)
		copy(buf, "CLOBBER!") // reuse immediately: SendSafer must have copied
		out.EndPacking()
		in := chb.BeginUnpacking(p)
		got := in.Unpack(8, madapi.ReceiveExpress)
		in.EndUnpacking()
		if string(got) != "original" {
			t.Errorf("SendSafer did not copy: %q", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExpressAfterCheaperPanics(t *testing.T) {
	k := vtime.NewKernel()
	cha, chb := mustPair(t, k)
	err := k.Run(func(p *vtime.Proc) {
		out := cha.BeginPacking(1)
		out.Pack([]byte("a"), madapi.SendCheaper)
		out.Pack([]byte("b"), madapi.SendCheaper)
		out.EndPacking()
		in := chb.BeginUnpacking(p)
		in.Unpack(1, madapi.ReceiveCheaper)
		in.Unpack(1, madapi.ReceiveExpress) // protocol violation
	})
	if err == nil {
		t.Fatal("ReceiveExpress after ReceiveCheaper did not panic")
	}
}

func TestUnpackSizeMismatchPanics(t *testing.T) {
	k := vtime.NewKernel()
	cha, chb := mustPair(t, k)
	err := k.Run(func(p *vtime.Proc) {
		out := cha.BeginPacking(1)
		out.Pack([]byte("four"), madapi.SendSafer)
		out.EndPacking()
		in := chb.BeginUnpacking(p)
		in.Unpack(5, madapi.ReceiveExpress)
	})
	if err == nil {
		t.Fatal("size mismatch did not panic")
	}
}

func TestChannelLimitsMatchHardware(t *testing.T) {
	k := vtime.NewKernel()
	xb := netsim.NewCrossbar(k, topology.Myrinet, model.MyrinetRate, model.MyrinetPktOverhd, model.MyrinetWireLat)
	ad := madeleine.New(k, madeleine.NewGM(gm.OpenNIC(k, xb, 0), []int{0, 1}), 0, 2)

	if ad.MaxChannels() != 2 {
		t.Errorf("gm channels = %d, want 2 (paper §4.1)", ad.MaxChannels())
	}
	if _, err := ad.Open(0); err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Open(0); !errors.Is(err, madeleine.ErrChanOpen) {
		t.Errorf("channel 0 opened twice: err = %v, want ErrChanOpen", err)
	}
	if _, err := ad.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ad.Open(2); !errors.Is(err, madeleine.ErrNoChannel) {
		t.Errorf("3rd gm channel: err = %v, want ErrNoChannel", err)
	}
}

func TestMadeleineLatencyOverGM(t *testing.T) {
	k := vtime.NewKernel()
	cha, chb := mustPair(t, k)
	var oneway time.Duration
	if err := k.Run(func(p *vtime.Proc) {
		done := vtime.NewWaitGroup("echo")
		done.Add(1)
		k.GoDaemon("echo", func(q *vtime.Proc) {
			for {
				in := chb.BeginUnpacking(q)
				data := in.Unpack(1, madapi.ReceiveExpress)
				in.EndUnpacking()
				out := chb.BeginPacking(in.Src())
				out.Pack(data, madapi.SendSafer)
				out.EndPacking()
			}
		})
		const rounds = 200
		start := p.Now()
		for i := 0; i < rounds; i++ {
			out := cha.BeginPacking(1)
			out.Pack([]byte{byte(i)}, madapi.SendSafer)
			out.EndPacking()
			in := cha.BeginUnpacking(p)
			in.Unpack(1, madapi.ReceiveExpress)
			in.EndUnpacking()
		}
		oneway = p.Now().Sub(start) / (2 * rounds)
		done.Done()
	}); err != nil {
		t.Fatal(err)
	}
	// GM (~5.7 µs incl. framing wire) + Madeleine 2×1.25 µs ≈ 8.2 µs.
	if oneway < 7*time.Microsecond || oneway > 9*time.Microsecond {
		t.Fatalf("Madeleine/GM one-way = %v, want ~8 µs", oneway)
	}
}

// Property: segment structure (count and sizes) survives the trip.
func TestQuickSegmentStructure(t *testing.T) {
	f := func(sizes []uint16, pick uint8) bool {
		if len(sizes) == 0 || len(sizes) > 8 {
			return true
		}
		k := vtime.NewKernel()
		cha, chb, err := pair(k)
		if err != nil {
			t.Log(err)
			return false
		}
		segs := make([][]byte, len(sizes))
		rnd := rand.New(rand.NewSource(int64(pick)))
		for i, s := range sizes {
			segs[i] = make([]byte, int(s)%5000+1)
			rnd.Read(segs[i])
		}
		ok := true
		err = k.Run(func(p *vtime.Proc) {
			out := cha.BeginPacking(1)
			for _, s := range segs {
				out.Pack(s, madapi.SendSafer)
			}
			out.EndPacking()
			in := chb.BeginUnpacking(p)
			for _, s := range segs {
				got := in.Unpack(len(s), madapi.ReceiveCheaper)
				if !bytes.Equal(got, s) {
					ok = false
				}
			}
			in.EndUnpacking()
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
