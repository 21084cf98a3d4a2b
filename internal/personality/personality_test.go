package personality_test

import (
	"testing"

	"padico/internal/circuit"
	"padico/internal/madapi"
	"padico/internal/personality"
	"padico/internal/topology"
	"padico/internal/vtime"
)

func TestFMHandlersAndVMad(t *testing.T) {
	k := vtime.NewKernel()
	group := []topology.NodeID{0}
	c := circuit.New(k, "fm", 0, group)
	c.SetLink(0, circuit.NewLoopbackLink(k, c, 0))
	if err := k.Run(func(p *vtime.Proc) {
		// VMad exposes the circuit through the madapi.Channel shape.
		vm := personality.NewVMad(k, c)
		if vm.Self() != 0 || vm.Size() != 1 {
			t.Fatal("vmad identity wrong")
		}
		out := vm.BeginPacking(0)
		out.Pack([]byte("via vmad"), madapi.SendSafer)
		out.EndPacking()
		in := vm.BeginUnpacking(p)
		if string(in.Unpack(8, madapi.ReceiveCheaper)) != "via vmad" {
			t.Fatal("vmad payload corrupted")
		}
		in.EndUnpacking()
	}); err != nil {
		t.Fatal(err)
	}
}
