package volano

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/trace"
)

func build(t *testing.T) (*Workload, *ifetch.CodeLayout) {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	comps := Components{App: layout.Add("volano", 128<<10, false, ifetch.Profile{})}
	kern := layout.Add("kernel-net", 256<<10, true, ifetch.Profile{})
	rng := simrand.New(7)
	// Reserved for the network stack, which draws nothing; the streams
	// derived after it keep their seeds.
	rng.Derive(1)
	ns := netsim.NewNetStack(space, kern)
	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 16 << 20
	hcfg.NewGenBytes = 4 << 20
	heap := jvm.MustNewHeap(space, hcfg)
	return New(heap, comps, ns, rng.Derive(2)), layout
}

func TestConnectionsCount(t *testing.T) {
	w, _ := build(t)
	if w.Connections() != 4*20 {
		t.Fatalf("connections = %d", w.Connections())
	}
}

func TestMessageFanOut(t *testing.T) {
	w, layout := build(t)
	src := w.Source(0)
	op := src.NextOp(0, 0)
	if !op.Business {
		t.Fatal("message not a business op")
	}
	// Count kernel lock sections: one per kernel path (1 receive +
	// UsersPerRoom-1 sends).
	kernelSections := 0
	var kernInstr, userInstr uint64
	for _, it := range op.Items {
		switch it.Kind {
		case trace.KindLockAcq:
			kernelSections++
		case trace.KindInstr:
			if layout.Component(it.Comp).Kernel {
				kernInstr += uint64(it.N)
			} else {
				userInstr += uint64(it.N)
			}
		}
	}
	if kernelSections != 20 { // 1 recv + 19 sends
		t.Fatalf("kernel sections = %d, want 20", kernelSections)
	}
	// The kernel path's share of instructions is near the user path's; its
	// share of time is far larger (spin locks, shared kernel lines), which
	// core's TestRelatedWorkKernelOrdering checks on the timed machine.
	if kernInstr == 0 || userInstr == 0 {
		t.Fatalf("kernel instructions %d, user %d: both paths must run", kernInstr, userInstr)
	}
}

func TestRoomSharedAcrossConnections(t *testing.T) {
	w, _ := build(t)
	// Two connections in the same room read the same member-list lines.
	a := w.Source(0)
	b := w.Source(1)
	lines := func(op *trace.Op) map[uint64]bool {
		out := map[uint64]bool{}
		for _, it := range op.Items {
			if it.Kind == trace.KindRead {
				out[mem.Line(it.Addr)] = true
			}
		}
		return out
	}
	la, lb := lines(a.NextOp(0, 0)), lines(b.NextOp(1, 0))
	shared := 0
	for l := range la {
		if lb[l] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("same-room connections share no read lines")
	}
	// Different rooms do not share the member list.
	c := w.Source(25) // room 1
	lc := lines(c.NextOp(25, 0))
	roomShared := 0
	for l := range la {
		if lc[l] {
			roomShared++
		}
	}
	if roomShared > shared {
		t.Fatal("cross-room sharing exceeds in-room sharing")
	}
}

func TestDeterministic(t *testing.T) {
	mk := func() uint64 {
		w, _ := build(t)
		src := w.Source(0)
		var n uint64
		for i := 0; i < 50; i++ {
			n += src.NextOp(0, uint64(i)).Instructions()
		}
		return n
	}
	if mk() != mk() {
		t.Fatal("volano stream not deterministic")
	}
}
