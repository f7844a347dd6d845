package ecperf

import (
	"testing"

	"repro/internal/db"
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/trace"
)

func build(t *testing.T, oir int) (*Workload, *jvm.Heap) {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	comps := Components{
		Servlet: layout.Add("servlet", 256<<10, false, ifetch.Profile{}),
		EJB:     layout.Add("ejb", 320<<10, false, ifetch.Profile{}),
		Server:  layout.Add("appserver", 448<<10, false, ifetch.Profile{}),
		JVM:     layout.Add("jvm", 192<<10, false, ifetch.Profile{}),
	}
	kern := layout.Add("kernel-net", 320<<10, true, ifetch.Profile{})
	rng := simrand.New(99)
	net := netsim.NewNetwork()
	net.AddPeer(netsim.PeerDatabase, db.NewServer(db.DefaultDatabaseConfig(), rng.Derive(1)))
	net.AddPeer(netsim.PeerSupplier, db.NewServer(db.Config{Workers: 4, BaseServiceCycles: 150_000, PerByteCycles: 4}, rng.Derive(2)))
	// Reserved for the network stack, which draws nothing; the streams
	// derived after it keep their seeds.
	rng.Derive(3)
	ns := netsim.NewNetStack(space, kern)

	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 64 << 20
	hcfg.NewGenBytes = 10 << 20
	heap := jvm.MustNewHeap(space, hcfg)
	w := New(DefaultConfig(oir, 4), heap, comps, ns, rng.Derive(4))
	return w, heap
}

func TestMixCoversAllDomains(t *testing.T) {
	w, _ := build(t, 10)
	src := w.Source(0)
	for i := 0; i < 3000; i++ {
		op := src.NextOp(0, uint64(i)*100_000)
		if op == nil || !op.Business {
			t.Fatal("source ended or op not business")
		}
	}
	for _, tag := range []string{"neworder", "changeorder", "orderstatus", "custstatus", "workorder", "purchase"} {
		if w.BBops[tag] == 0 {
			t.Fatalf("no %s BBops in 3000", tag)
		}
	}
}

func TestBBopsUseNetworkAndKernel(t *testing.T) {
	w, _ := build(t, 10)
	src := w.Source(0)
	var netcalls, kernelLocks int
	for i := 0; i < 200; i++ {
		op := src.NextOp(0, uint64(i)*100_000)
		for _, it := range op.Items {
			switch it.Kind {
			case trace.KindNetCall:
				netcalls++
			case trace.KindLockAcq:
				if it.Aux == 1 {
					kernelLocks++
				}
			}
		}
	}
	if netcalls == 0 {
		t.Fatal("ECperf BBops never crossed tiers")
	}
	if kernelLocks == 0 {
		t.Fatal("no kernel lock sections recorded")
	}
}

// TestCacheHitRateRisesWithRate reproduces §4.4's mechanism end to end:
// the same worker issuing BBops at a higher rate sees a hotter entity
// cache, so the mean instruction count per BBop falls.
func TestCacheHitRateRisesWithRate(t *testing.T) {
	instrPerOp := func(gap uint64) float64 {
		w, _ := build(t, 10)
		src := w.Source(0)
		// Warm.
		now := uint64(0)
		for i := 0; i < 400; i++ {
			src.NextOp(0, now)
			now += gap
		}
		var instr uint64
		for i := 0; i < 600; i++ {
			op := src.NextOp(0, now)
			instr += op.Instructions()
			now += gap
		}
		return float64(instr) / 600
	}
	slow := instrPerOp(20_000_000) // far beyond TTL: every entity reloads
	fast := instrPerOp(50_000)     // well inside TTL
	// A reload costs a database round trip through the kernel stack and
	// the ORM hydration; on the calibrated stack the mean falls ~10%.
	if fast >= slow*0.95 {
		t.Fatalf("path length did not shrink with rate: slow=%v fast=%v", slow, fast)
	}
}

// TestLiveMemoryPlateausWithOIR is ECperf's half of Figure 11: the middle
// tier's live memory rises with the injection rate only up to a knee, then
// stays flat (the database lives on another machine).
func TestLiveMemoryPlateausWithOIR(t *testing.T) {
	liveAt := func(oir int) uint64 {
		w, heap := build(t, oir)
		src := w.Source(0)
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			src.NextOp(0, now)
			now += 100_000
		}
		return heap.MinorGC(nil).LiveBytes
	}
	l1, l6, l40 := liveAt(1), liveAt(6), liveAt(40)
	if l6 <= l1 {
		t.Fatalf("live memory flat below the knee: l1=%d l6=%d", l1, l6)
	}
	// Past the knee: growth must be small (within 15%).
	if l40 > l6+l6/7 {
		t.Fatalf("live memory still growing past knee: l6=%d l40=%d", l6, l40)
	}
}

func TestWorkOrdersBounded(t *testing.T) {
	w, heap := build(t, 40)
	src := w.Source(0)
	for i := 0; i < 3000; i++ {
		src.NextOp(0, uint64(i)*50_000)
	}
	if len(w.inflight) > w.inflightMax {
		t.Fatalf("inflight %d exceeds max %d", len(w.inflight), w.inflightMax)
	}
	// Completed work orders must actually die.
	heap.MinorGC(nil)
	heap.MajorGC(nil)
	live := heap.Stats.LiveAfterLastGC
	if live > 24<<20 {
		t.Fatalf("live bytes %d suggest work orders leak", live)
	}
}

func TestDBCallsCounted(t *testing.T) {
	w, _ := build(t, 10)
	src := w.Source(0)
	calls := 0
	for i := 0; i < 100; i++ {
		op := src.NextOp(0, 0) // time frozen: cache entries never expire within TTL
		for _, it := range op.Items {
			if it.Kind == trace.KindNetCall && it.Peer == netsim.PeerDatabase {
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("no database calls recorded")
	}
}

func TestDeterministicStream(t *testing.T) {
	mk := func() []string {
		w, _ := build(t, 10)
		src := w.Source(3)
		var tags []string
		for i := 0; i < 100; i++ {
			tags = append(tags, src.NextOp(0, uint64(i)*10_000).Tag)
		}
		return tags
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestTunedPoolsScaleWithProcessors(t *testing.T) {
	small := DefaultConfig(10, 1)
	big := DefaultConfig(10, 15)
	if big.Workers <= small.Workers || big.Connections <= small.Connections {
		t.Fatal("pool tuning does not scale with processors")
	}
}

func TestEntityCacheSharedAcrossWorkers(t *testing.T) {
	// A bean loaded by one worker must be a cache hit for another: the
	// §4.4 constructive-interference mechanism is cross-thread.
	w, _ := build(t, 10)
	a := w.Source(0)
	b := w.Source(1)
	for i := 0; i < 300; i++ {
		a.NextOp(0, uint64(i)*50_000)
	}
	hitsBefore := w.Cache().Hits
	for i := 0; i < 300; i++ {
		b.NextOp(1, uint64(300+i)*50_000)
	}
	if w.Cache().Hits <= hitsBefore {
		t.Fatal("second worker never hit entities loaded by the first")
	}
}

func TestPurchaseTalksToSupplier(t *testing.T) {
	w, _ := build(t, 10)
	src := w.Source(0)
	supplierCalls := 0
	for i := 0; i < 400; i++ {
		op := src.NextOp(0, uint64(i)*10_000)
		for _, it := range op.Items {
			if it.Kind == trace.KindNetCall && it.Peer == netsim.PeerSupplier {
				supplierCalls++
			}
		}
	}
	if supplierCalls == 0 {
		t.Fatal("no supplier-emulator round trips in 400 BBops")
	}
	if w.BBops["purchase"] == 0 {
		t.Fatal("mix produced no purchase BBops")
	}
}

func TestSessionGarbageDies(t *testing.T) {
	w, heap := build(t, 10)
	src := w.Source(0)
	for i := 0; i < 1500; i++ {
		src.NextOp(0, uint64(i)*50_000)
	}
	gc := heap.MinorGC(nil)
	// Live memory must be bounded by cache beans + work orders + slack —
	// far less than the cumulative session/XML allocation.
	if gc.LiveBytes > 16<<20 {
		t.Fatalf("live bytes %d: session garbage appears to leak", gc.LiveBytes)
	}
	if heap.Stats.AllocatedBytes < 4*gc.LiveBytes {
		t.Fatalf("allocation (%d) not ≫ live (%d): workload barely allocates",
			heap.Stats.AllocatedBytes, gc.LiveBytes)
	}
}

func TestConnectionsAcquireBalanced(t *testing.T) {
	w, _ := build(t, 10)
	src := w.Source(0)
	var acq, rel int
	for i := 0; i < 200; i++ {
		op := src.NextOp(0, uint64(i)*1_000_000) // slow rate: mostly misses
		for _, it := range op.Items {
			switch it.Kind {
			case trace.KindSemAcq:
				acq++
			case trace.KindSemRel:
				rel++
			}
		}
	}
	if acq == 0 {
		t.Fatal("no connection acquisitions")
	}
	if acq != rel {
		t.Fatalf("unbalanced pool: %d acquires, %d releases", acq, rel)
	}
}
