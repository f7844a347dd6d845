package netsim

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/trace"
)

type fixedResponder struct{ service uint64 }

func (f fixedResponder) Respond(arrive uint64, req, resp uint32) (done, queue, service uint64) {
	return arrive + f.service, 0, f.service
}

func TestTransferCycles(t *testing.T) {
	// 0.05 B/cycle: 50 bytes take 1000 cycles on top of the latency.
	if got := TransferCycles(50); got != LinkLatencyCycles+1000 {
		t.Fatalf("TransferCycles = %d, want %d", got, LinkLatencyCycles+1000)
	}
}

func TestRoundTrip(t *testing.T) {
	n := NewNetwork()
	n.AddPeer(2, fixedResponder{service: 1000})
	want := TransferCycles(10) + 1000 + TransferCycles(20)
	if got, det := n.RoundTrip(2, 0, 10, 20); got != want || det != (RTDetail{Service: 1000}) {
		t.Fatalf("RoundTrip = %d %+v, want %d {Service:1000}", got, det, want)
	}
}

func TestRoundTripUnknownPeer(t *testing.T) {
	n := NewNetwork()
	if got, det := n.RoundTrip(9, 0, 10, 10); got != 2*TransferCycles(10) || det != (RTDetail{}) {
		t.Fatalf("unknown-peer RoundTrip = %d %+v", got, det)
	}
}

func buildStack(t *testing.T) *NetStack {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	kern := layout.Add("kernel-net", 256<<10, true, ifetch.Profile{})
	return NewNetStack(space, kern)
}

func TestCallRecordsKernelPath(t *testing.T) {
	ns := buildStack(t)
	rec := trace.NewRecorder("bbop")
	ns.Call(rec, 1, 512, 4096)
	op := rec.Finish()

	var locks, unlocks, netcalls int
	var kernelInstr uint64
	spin := false
	for _, it := range op.Items {
		switch it.Kind {
		case trace.KindLockAcq:
			locks++
			if it.Aux == 1 {
				spin = true
			}
		case trace.KindLockRel:
			unlocks++
		case trace.KindNetCall:
			netcalls++
			if it.Peer != 1 || it.ID != 512 || it.Aux != 4096 {
				t.Fatalf("netcall fields wrong: %+v", it)
			}
		case trace.KindInstr:
			kernelInstr += uint64(it.N)
		}
	}
	if locks != 2 || unlocks != 2 {
		t.Fatalf("kernel lock sections: %d acq, %d rel", locks, unlocks)
	}
	if !spin {
		t.Fatal("kernel lock not marked as spin lock")
	}
	if netcalls != 1 {
		t.Fatalf("netcalls = %d", netcalls)
	}
	if kernelInstr < uint64(sendInstr+recvInstr) {
		t.Fatalf("kernel instructions %d below base path", kernelInstr)
	}
}

func TestHotLinesAreStable(t *testing.T) {
	ns := buildStack(t)
	collect := func() map[uint64]bool {
		rec := trace.NewRecorder("x")
		ns.Call(rec, 1, 100, 100)
		op := rec.Finish()
		lines := map[uint64]bool{}
		for _, it := range op.Items {
			if it.Kind == trace.KindRead {
				lines[mem.Line(it.Addr)] = true
			}
		}
		return lines
	}
	a, b := collect(), collect()
	for l := range a {
		if !b[l] {
			t.Fatal("hot kernel lines differ between calls; sharing traffic would vanish")
		}
	}
	if len(a) == 0 {
		t.Fatal("no hot-line reads recorded")
	}
}

func TestNonKernelComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 64<<10, false, ifetch.Profile{})
	NewNetStack(space, user)
}
