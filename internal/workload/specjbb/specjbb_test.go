package specjbb

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

func build(t *testing.T, warehouses int) (*Workload, *jvm.Heap) {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	comps := Components{
		App: layout.Add("jbb-app", 192<<10, false, ifetch.Profile{}),
		JVM: layout.Add("jvm", 128<<10, false, ifetch.Profile{}),
	}
	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 96 << 20
	hcfg.NewGenBytes = 12 << 20
	heap := jvm.MustNewHeap(space, hcfg)
	w := New(warehouses, heap, comps, simrand.New(42))
	return w, heap
}

func TestBuildPromotesTrees(t *testing.T) {
	_, heap := build(t, 2)
	if heap.Stats.MinorGCs < 2 {
		t.Fatalf("MinorGCs = %d", heap.Stats.MinorGCs)
	}
	if heap.OldUsed() == 0 {
		t.Fatal("warehouse trees not promoted to old gen")
	}
}

// TestLiveMemoryScalesLinearly is the SPECjbb half of Figure 11: live heap
// after GC grows linearly with warehouse count.
func TestLiveMemoryScalesLinearly(t *testing.T) {
	liveAt := func(whs int) uint64 {
		w, heap := build(t, whs)
		// Run some transactions so order rings populate.
		src := w.Source(0)
		for i := 0; i < 300; i++ {
			src.NextOp(0, uint64(i)*50_000)
		}
		gc := heap.MinorGC(nil)
		return gc.LiveBytes
	}
	l1, l4, l8 := liveAt(1), liveAt(4), liveAt(8)
	if l4 < 3*l1 || l4 > 6*l1 {
		t.Fatalf("live(4)=%d not ~4x live(1)=%d", l4, l1)
	}
	if l8 < int64Min(7*l1, 2*l4-l1) {
		t.Fatalf("live(8)=%d not linear vs live(1)=%d, live(4)=%d", l8, l1, l4)
	}
}

func int64Min(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func TestTransactionMix(t *testing.T) {
	w, _ := build(t, 1)
	src := w.Source(0)
	for i := 0; i < 4000; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		if op == nil {
			t.Fatal("unbounded source ended")
		}
		if !op.Business {
			t.Fatal("transaction not marked business")
		}
	}
	total := uint64(0)
	for _, n := range w.Txns {
		total += n
	}
	if total != 4000 {
		t.Fatalf("txn count = %d", total)
	}
	no := float64(w.Txns["neworder"]) / 4000
	pay := float64(w.Txns["payment"]) / 4000
	if no < 0.38 || no > 0.49 || pay < 0.38 || pay > 0.49 {
		t.Fatalf("mix off: neworder=%v payment=%v", no, pay)
	}
	for _, tag := range []string{"orderstatus", "delivery", "stocklevel"} {
		if w.Txns[tag] == 0 {
			t.Fatalf("no %s transactions in 4000", tag)
		}
	}
}

func TestOpsCarryWork(t *testing.T) {
	w, _ := build(t, 1)
	src := w.Source(0)
	var instr uint64
	var reads, writes, locks int
	for i := 0; i < 200; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		instr += op.Instructions()
		for _, it := range op.Items {
			switch it.Kind {
			case trace.KindRead:
				reads++
			case trace.KindWrite:
				writes++
			case trace.KindLockAcq:
				locks++
			}
		}
	}
	if instr < 200*3000 {
		t.Fatalf("instructions too low: %d", instr)
	}
	if reads < 500 || writes < 500 {
		t.Fatalf("data refs too low: r=%d w=%d", reads, writes)
	}
	if locks == 0 {
		t.Fatal("no lock acquisitions recorded")
	}
}

func TestNoNetworkCalls(t *testing.T) {
	// SPECjbb runs all three tiers in one JVM: no kernel networking at all
	// (that is why its system time is ~zero in Figure 5).
	w, _ := build(t, 1)
	src := w.Source(0)
	for i := 0; i < 500; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		for _, it := range op.Items {
			if it.Kind == trace.KindNetCall {
				t.Fatal("SPECjbb op contains a network call")
			}
		}
	}
}

func TestGCTriggersDuringRun(t *testing.T) {
	w, heap := build(t, 2)
	src := w.Source(0)
	before := heap.Stats.MinorGCs
	sawPause := false
	for i := 0; i < 30000 && !sawPause; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		for _, it := range op.Items {
			if it.Kind == trace.KindGCPause {
				sawPause = true
			}
		}
	}
	if !sawPause || heap.Stats.MinorGCs == before {
		t.Fatal("sustained allocation never triggered a recorded GC")
	}
}

func TestLiveMemoryStabilizes(t *testing.T) {
	// Order rings cap the emulated database: live memory must plateau, not
	// grow without bound, at fixed warehouse count.
	w, heap := build(t, 2)
	srcs := []struct {
		s interface{ NextOp(int, uint64) *trace.Op }
	}{
		{w.Source(0)}, {w.Source(1)},
	}
	measure := func(rounds int) uint64 {
		for i := 0; i < rounds; i++ {
			for j, s := range srcs {
				s.s.NextOp(j, uint64(i)*20_000)
			}
		}
		return heap.MinorGC(nil).LiveBytes
	}
	early := measure(1500)
	late := measure(1500)
	if late > early+early/4 {
		t.Fatalf("live memory still growing at fixed scale: %d -> %d", early, late)
	}
}

func TestDeterministicOps(t *testing.T) {
	mk := func() []string {
		w, _ := build(t, 1)
		src := w.Source(0)
		var tags []string
		for i := 0; i < 100; i++ {
			tags = append(tags, src.NextOp(0, uint64(i)).Tag)
		}
		return tags
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op streams diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestDeliveryDrainsRings(t *testing.T) {
	w, _ := build(t, 1)
	src := w.Source(0).(*threadSource)
	// Fill rings with orders.
	for i := 0; i < 600; i++ {
		src.NextOp(0, uint64(i)*10_000)
	}
	total := 0
	for _, d := range src.wh.districts {
		total += d.count
	}
	if total == 0 {
		t.Fatal("no orders in rings after 600 transactions")
	}
	// Rings stay bounded by capacity.
	for _, d := range src.wh.districts {
		if d.count > ordersPerDistrict {
			t.Fatalf("ring overflow: %d > %d", d.count, ordersPerDistrict)
		}
	}
}

func TestLockBalance(t *testing.T) {
	w, _ := build(t, 2)
	src := w.Source(0)
	var acq, rel int
	for i := 0; i < 500; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		for _, it := range op.Items {
			switch it.Kind {
			case trace.KindLockAcq:
				acq++
			case trace.KindLockRel:
				rel++
			}
		}
	}
	if acq == 0 || acq != rel {
		t.Fatalf("unbalanced locks: %d acquires, %d releases", acq, rel)
	}
}

func TestCompanyStatsSharedAcrossWarehouses(t *testing.T) {
	// Both threads must touch the same company lines — the cross-warehouse
	// communication the paper attributes SPECjbb's hot lines to.
	w, _ := build(t, 2)
	collect := func(whID int) map[uint64]bool {
		src := w.Source(whID)
		lines := map[uint64]bool{}
		for i := 0; i < 100; i++ {
			op := src.NextOp(whID, uint64(i)*10_000)
			for _, it := range op.Items {
				if it.Kind == trace.KindWrite && it.N == 8 {
					lines[it.Addr&^63] = true
				}
			}
		}
		return lines
	}
	a, b := collect(0), collect(1)
	shared := 0
	for l := range a {
		if b[l] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("warehouse threads share no written lines")
	}
}
