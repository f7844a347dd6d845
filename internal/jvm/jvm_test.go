package jvm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

func testCfg() Config {
	c := DefaultConfig()
	c.HeapBytes = 8 << 20
	c.NewGenBytes = 2 << 20
	return c
}

func newHeap(t *testing.T) *Heap {
	t.Helper()
	h, err := NewHeap(mem.NewAddrSpace(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func rec() *trace.Recorder { return trace.NewRecorder("test") }

// liveSizes returns the size of every live object.
func liveSizes(h *Heap) map[ObjectID]uint32 {
	m := map[ObjectID]uint32{}
	for i := ObjectID(1); int(i) < h.slots; i++ {
		if h.obj(i).live {
			m[i] = h.obj(i).size
		}
	}
	return m
}

// TestGCFreedBytes: each collection reports the summed size of the objects
// that were live before it and are not after.
func TestGCFreedBytes(t *testing.T) {
	h := newHeap(t)
	r := rec()
	check := func(name string, collect func(*trace.Recorder) *trace.GC) {
		t.Helper()
		before := liveSizes(h)
		gc := collect(r)
		var want uint64
		for id, size := range before {
			if !h.obj(id).live {
				want += uint64(size)
			}
		}
		if want == 0 || gc.FreedBytes != want {
			t.Errorf("%s: FreedBytes = %d, want %d (nonzero)", name, gc.FreedBytes, want)
		}
	}
	keep := h.Alloc(r, 1, 200, 2)
	old := h.Alloc(r, 1, 512, 0)
	h.AddRoot(keep)
	h.SetRef(r, keep, 0, old)
	for i := 0; i < 10; i++ {
		h.Alloc(r, 1, uint32(96+8*i), 0) // young garbage
	}
	h.ClearStack(1)
	check("minor", h.MinorGC)

	h.MajorGC(r) // promotes keep and old
	h.SetRef(r, keep, 0, NilObject)
	for i := 0; i < 5; i++ {
		h.Alloc(r, 1, 1024, 0)
	}
	h.ClearStack(1)
	check("major", h.MajorGC) // frees old (an old object) and the young garbage
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NewGenBytes = c.HeapBytes },
		func(c *Config) { c.MajorOccupancy = 0 },
		func(c *Config) { c.MajorOccupancy = 1.5 },
	}
	for i, mut := range bad {
		c := testCfg()
		mut(&c)
		if _, err := NewHeap(mem.NewAddrSpace(), c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAllocBasics(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 100, 2)
	if id == NilObject {
		t.Fatal("nil object returned")
	}
	if h.Size(id) != 104 { // padded to 8
		t.Fatalf("size = %d", h.Size(id))
	}
	if !h.obj(id).young || !h.IsLive(id) {
		t.Fatal("fresh object not live+young")
	}
	if h.NumRefs(id) != 2 {
		t.Fatalf("refs = %d", h.NumRefs(id))
	}
	// Allocation must record the zeroing write.
	op := r.Finish()
	if len(op.Items) == 0 || op.Items[len(op.Items)-1].Kind != trace.KindWrite {
		t.Fatal("allocation did not record an initializing write")
	}
}

func TestMinSize(t *testing.T) {
	h := newHeap(t)
	id := h.Alloc(rec(), 1, 1, 0)
	if h.Size(id) != HeaderBytes {
		t.Fatalf("min size = %d, want %d", h.Size(id), HeaderBytes)
	}
}

func TestTLABsArePerThread(t *testing.T) {
	h := newHeap(t)
	r := rec()
	a := h.Alloc(r, 1, 64, 0)
	b := h.Alloc(r, 2, 64, 0)
	c := h.Alloc(r, 1, 64, 0)
	// Same-thread objects are adjacent; cross-thread objects are in
	// different TLABs.
	if h.Addr(c) != h.Addr(a)+64 {
		t.Fatalf("same-thread allocs not contiguous: %x then %x", h.Addr(a), h.Addr(c))
	}
	if h.Addr(b) >= h.Addr(a) && h.Addr(b) < h.Addr(a)+tlabBytes {
		t.Fatal("threads sharing a TLAB")
	}
}

func TestLargeObjectGoesOld(t *testing.T) {
	h := newHeap(t)
	id := h.Alloc(rec(), 1, uint32(largeObject), 0)
	if h.obj(id).young {
		t.Fatal("large object allocated young")
	}
	if h.OldUsed() == 0 {
		t.Fatal("old gen unused after large alloc")
	}
}

func TestMinorGCCollectsGarbage(t *testing.T) {
	h := newHeap(t)
	r := rec()
	keep := h.Alloc(r, 1, 256, 0)
	h.AddRoot(keep)
	var dead ObjectID
	for i := 0; i < 100; i++ {
		dead = h.Alloc(r, 1, 256, 0) // unrooted garbage
	}
	h.ClearStack(1) // pop the frame holding the garbage
	gc := h.MinorGC(r)
	if !h.IsLive(keep) {
		t.Fatal("rooted object collected")
	}
	if h.IsLive(dead) {
		t.Fatal("garbage survived")
	}
	if gc.LiveBytes == 0 || gc.LiveBytes > 10<<10 {
		t.Fatalf("LiveBytes = %d", gc.LiveBytes)
	}
	if h.Stats.MinorGCs != 1 {
		t.Fatalf("MinorGCs = %d", h.Stats.MinorGCs)
	}
	if h.EdenUsed() != 0 {
		t.Fatal("eden not reset")
	}
}

func TestGCPauseRecordedIntoOp(t *testing.T) {
	h := newHeap(t)
	r := rec()
	h.MinorGC(r)
	op := r.Finish()
	found := false
	for _, it := range op.Items {
		if it.Kind == trace.KindGCPause && it.GC != nil && len(it.GC.Items) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no GC pause item recorded")
	}
}

func TestCopyMovesAndIDsStable(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 128, 0)
	h.AddRoot(id)
	before := h.Addr(id)
	h.MinorGC(r)
	after := h.Addr(id)
	if before == after {
		t.Fatal("survivor did not move")
	}
	if !h.obj(id).young {
		t.Fatal("first-copy survivor should still be young")
	}
}

func TestPromotionAfterAge(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 128, 0)
	h.AddRoot(id)
	for i := 0; i < int(h.Config().PromoteAge); i++ {
		h.MinorGC(r)
	}
	if h.obj(id).young {
		t.Fatal("object not promoted after aging")
	}
	if h.Stats.PromotedBytes == 0 {
		t.Fatal("no promoted bytes counted")
	}
}

func TestReachabilityThroughChain(t *testing.T) {
	h := newHeap(t)
	r := rec()
	root := h.Alloc(r, 1, 64, 1)
	mid := h.Alloc(r, 1, 64, 1)
	leaf := h.Alloc(r, 1, 64, 0)
	h.SetRef(r, root, 0, mid)
	h.SetRef(r, mid, 0, leaf)
	h.AddRoot(root)
	h.MinorGC(r)
	if !h.IsLive(root) || !h.IsLive(mid) || !h.IsLive(leaf) {
		t.Fatal("chain broken by GC")
	}
	if h.GetRef(r, root, 0) != mid || h.GetRef(r, mid, 0) != leaf {
		t.Fatal("refs corrupted by GC")
	}
}

func TestRememberedSetKeepsYoungAlive(t *testing.T) {
	h := newHeap(t)
	r := rec()
	old := h.Alloc(r, 1, 128, 1)
	h.AddRoot(old)
	for i := 0; i < int(h.Config().PromoteAge); i++ {
		h.MinorGC(r)
	}
	if h.obj(old).young {
		t.Fatal("setup: old not promoted")
	}
	young := h.Alloc(r, 1, 64, 0)
	h.SetRef(r, old, 0, young) // old -> young, only via remset
	h.RemoveRoot(old)
	h.AddRoot(old) // still rooted
	h.MinorGC(r)
	if !h.IsLive(young) {
		t.Fatal("remembered set failed: young object reachable only from old was collected")
	}
}

func TestEdenExhaustionTriggersGC(t *testing.T) {
	h := newHeap(t)
	r := rec()
	keep := h.Alloc(r, 1, 1024, 0)
	h.AddRoot(keep)
	edenBytes := h.Config().NewGenBytes - 2*uint64(float64(h.Config().NewGenBytes)*survivorFrac)
	n := int(edenBytes/1024) * 3
	for i := 0; i < n; i++ {
		h.Alloc(r, 1, 1024, 0)
	}
	if h.Stats.MinorGCs < 2 {
		t.Fatalf("MinorGCs = %d, want >= 2 after overallocating eden 3x", h.Stats.MinorGCs)
	}
	if !h.IsLive(keep) {
		t.Fatal("rooted object lost across automatic GCs")
	}
}

func TestMajorGCCompactsAndReclaims(t *testing.T) {
	h := newHeap(t)
	r := rec()
	// Build old-gen garbage: root objects, promote them, then unroot half.
	var ids []ObjectID
	for i := 0; i < 64; i++ {
		id := h.Alloc(r, 1, 2048, 0)
		h.AddRoot(id)
		ids = append(ids, id)
	}
	for i := 0; i < int(h.Config().PromoteAge); i++ {
		h.MinorGC(r)
	}
	usedBefore := h.OldUsed()
	for i := 0; i < 32; i++ {
		h.RemoveRoot(ids[i])
	}
	h.ClearStack(1)
	h.MajorGC(r)
	if h.OldUsed() >= usedBefore {
		t.Fatalf("major GC did not reclaim: %d -> %d", usedBefore, h.OldUsed())
	}
	for i := 0; i < 32; i++ {
		if h.IsLive(ids[i]) {
			t.Fatal("unrooted old object survived major GC")
		}
	}
	for i := 32; i < 64; i++ {
		if !h.IsLive(ids[i]) || h.obj(ids[i]).young {
			t.Fatal("rooted old object lost or demoted")
		}
	}
	if h.Stats.MajorGCs != 1 {
		t.Fatalf("MajorGCs = %d", h.Stats.MajorGCs)
	}
}

func TestMajorGCPromotesAllYoung(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 64, 0)
	h.AddRoot(id)
	h.MajorGC(r)
	if h.obj(id).young {
		t.Fatal("young survivor of full GC not promoted")
	}
	if h.EdenUsed() != 0 {
		t.Fatal("eden not empty after full GC")
	}
}

func TestPermanentObjectsNeverMove(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.AllocPermanent(r, 64)
	before := h.Addr(id)
	h.MinorGC(r)
	h.MajorGC(r)
	if h.Addr(id) != before {
		t.Fatal("permanent object moved")
	}
	if !h.IsLive(id) {
		t.Fatal("permanent object collected")
	}
}

func TestMonitorOnOwnLine(t *testing.T) {
	h := newHeap(t)
	r := rec()
	m1 := h.NewMonitor(r)
	m2 := h.NewMonitor(r)
	if mem.Line(m1.Addr) == mem.Line(m2.Addr) {
		t.Fatal("monitors share a cache line")
	}
	if m1.ID == m2.ID {
		t.Fatal("monitor IDs collide")
	}
	r2 := rec()
	m1.Lock(r2)
	m1.Unlock(r2)
	op := r2.Finish()
	kinds := []trace.Kind{trace.KindLockAcq, trace.KindWrite, trace.KindWrite, trace.KindLockRel}
	if len(op.Items) != len(kinds) {
		t.Fatalf("items = %d", len(op.Items))
	}
	for i, k := range kinds {
		if op.Items[i].Kind != k {
			t.Fatalf("item %d kind = %v, want %v", i, op.Items[i].Kind, k)
		}
	}
}

func TestGCEmitsCopyTraffic(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 4096, 0)
	h.AddRoot(id)
	gc := h.MinorGC(r)
	var readBytes, writeBytes uint64
	for _, it := range gc.Items {
		switch it.Kind {
		case trace.KindRead:
			readBytes += uint64(it.N)
		case trace.KindWrite:
			writeBytes += uint64(it.N)
		}
	}
	if readBytes < 4096 || writeBytes < 4096 {
		t.Fatalf("GC copy traffic too small: r=%d w=%d", readBytes, writeBytes)
	}
	if gc.CopiedObjs != 1 {
		t.Fatalf("CopiedObjs = %d", gc.CopiedObjs)
	}
}

func TestLiveBytesTracksLiveSet(t *testing.T) {
	h := newHeap(t)
	r := rec()
	var roots []ObjectID
	for i := 0; i < 32; i++ {
		id := h.Alloc(r, 1, 1024, 0)
		h.AddRoot(id)
		roots = append(roots, id)
	}
	h.ClearStack(1)
	gc1 := h.MinorGC(r)
	for _, id := range roots {
		h.RemoveRoot(id)
	}
	gc2 := h.MinorGC(r)
	if gc2.LiveBytes >= gc1.LiveBytes {
		t.Fatalf("LiveBytes did not shrink: %d -> %d", gc1.LiveBytes, gc2.LiveBytes)
	}
}

// TestRandomGraphGCConsistency is a property test: after arbitrary
// interleavings of allocation, linking, rooting, and collections, exactly
// the root-reachable objects are live, and their link structure is intact.
func TestRandomGraphGCConsistency(t *testing.T) {
	h := newHeap(t)
	r := rec()
	rng := simrand.New(1234)

	var nodes []graphNode
	rooted := map[int]bool{}

	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // allocate
			n := graphNode{id: h.Alloc(r, rng.Intn(4), uint32(32+rng.Intn(256)), 2), refs: []int{-1, -1}}
			nodes = append(nodes, n)
			if rng.Bool(0.3) || len(nodes) == 1 {
				h.AddRoot(n.id)
				rooted[len(nodes)-1] = true
			}
		case 4, 5, 6: // link (only between model-reachable nodes)
			if len(nodes) < 2 {
				continue
			}
			reach := reachable(nodes, rooted)
			if len(reach) < 2 {
				continue
			}
			from := reach[rng.Intn(len(reach))]
			to := reach[rng.Intn(len(reach))]
			slot := rng.Intn(2)
			nodes[from].refs[slot] = to
			h.SetRef(r, nodes[from].id, slot, nodes[to].id)
		case 7: // unroot (keep at least one root)
			if len(rooted) > 1 {
				for idx := range rooted {
					h.RemoveRoot(nodes[idx].id)
					delete(rooted, idx)
					break
				}
			}
		case 8:
			for tid := 0; tid < 4; tid++ {
				h.ClearStack(tid)
			}
			h.MinorGC(r)
		case 9:
			if rng.Bool(0.2) {
				for tid := 0; tid < 4; tid++ {
					h.ClearStack(tid)
				}
				h.MajorGC(r)
			}
		}
	}
	for tid := 0; tid < 4; tid++ {
		h.ClearStack(tid)
	}
	h.MinorGC(r)

	reach := map[int]bool{}
	for _, idx := range reachable(nodes, rooted) {
		reach[idx] = true
	}
	for idx, n := range nodes {
		if reach[idx] && !h.IsLive(n.id) {
			t.Fatalf("reachable node %d not live", idx)
		}
	}
	// Link structure of reachable nodes must match the model.
	for idx := range reach {
		for slot, tgt := range nodes[idx].refs {
			got := h.GetRef(r, nodes[idx].id, slot)
			if tgt == -1 {
				if got != NilObject {
					t.Fatalf("node %d slot %d: want nil, got %d", idx, slot, got)
				}
			} else if got != nodes[tgt].id {
				t.Fatalf("node %d slot %d: want %d, got %d", idx, slot, nodes[tgt].id, got)
			}
		}
	}
}

// graphNode is the model-side mirror of a heap object in the property test.
type graphNode struct {
	id   ObjectID
	refs []int // indices into the model node slice, -1 = nil
}

func reachable(nodes []graphNode, rooted map[int]bool) []int {
	seen := map[int]bool{}
	var stack []int
	for idx := range rooted {
		stack = append(stack, idx)
		seen[idx] = true
	}
	var out []int
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, idx)
		for _, tgt := range nodes[idx].refs {
			if tgt >= 0 && !seen[tgt] {
				seen[tgt] = true
				stack = append(stack, tgt)
			}
		}
	}
	return out
}

func TestSurvivorOverflowPromotesEarly(t *testing.T) {
	// Live young data larger than a survivor space must promote on the
	// first copy even below the age threshold.
	cfg := testCfg() // newgen 2MB, survivors 200KB each
	h := MustNewHeap(mem.NewAddrSpace(), cfg)
	r := rec()
	var ids []ObjectID
	for i := 0; i < 40; i++ { // ~640KB live, 3x the survivor space
		id := h.Alloc(r, 1, 16<<10, 0)
		h.AddRoot(id)
		ids = append(ids, id)
	}
	h.ClearStack(1)
	h.MinorGC(r)
	promoted := 0
	for _, id := range ids {
		if !h.obj(id).young {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("survivor overflow promoted nothing")
	}
	for _, id := range ids {
		if !h.IsLive(id) {
			t.Fatal("live object lost in overflow")
		}
	}
}

func TestRemsetPrunedAfterTargetPromotes(t *testing.T) {
	h := newHeap(t)
	r := rec()
	parent := h.Alloc(r, 1, 64, 1)
	h.AddRoot(parent)
	for i := 0; i < int(h.Config().PromoteAge); i++ {
		h.MinorGC(r) // promote parent
	}
	child := h.Alloc(r, 1, 64, 0)
	h.SetRef(r, parent, 0, child)
	if len(h.remset) == 0 {
		t.Fatal("old->young ref did not enter the remembered set")
	}
	for i := 0; i < int(h.Config().PromoteAge); i++ {
		h.MinorGC(r) // child promotes too
	}
	if h.obj(child).young {
		t.Fatal("setup: child still young")
	}
	if len(h.remset) != 0 {
		t.Fatalf("remset not pruned after promotion: %d entries", len(h.remset))
	}
}

func TestMonitorAddressStableAcrossGC(t *testing.T) {
	h := newHeap(t)
	r := rec()
	m := h.NewMonitor(r)
	before := m.Addr
	h.MinorGC(r)
	h.MajorGC(r)
	if m.Addr != before {
		t.Fatal("monitor lock word moved (permanent objects must not)")
	}
}

func TestClearStackIsPerThread(t *testing.T) {
	h := newHeap(t)
	r := rec()
	a := h.Alloc(r, 1, 64, 0) // thread 1's frame
	b := h.Alloc(r, 2, 64, 0) // thread 2's frame
	h.ClearStack(1)
	h.MinorGC(r)
	if h.IsLive(a) {
		t.Fatal("thread 1's popped temporary survived")
	}
	if !h.IsLive(b) {
		t.Fatal("thread 2's pinned temporary was collected")
	}
}

func TestLargeObjectTriggersMajorWhenOldFull(t *testing.T) {
	cfg := testCfg() // heap 8MB, newgen 2MB -> old 6MB
	h := MustNewHeap(mem.NewAddrSpace(), cfg)
	r := rec()
	// Fill old gen with large garbage (unrooted), then allocate once more:
	// the heap must major-collect instead of panicking.
	for i := 0; i < 120; i++ { // 12 MB of large garbage into a 6 MB old gen
		h.Alloc(r, 1, 100<<10, 0)
		h.ClearStack(1)
	}
	if h.Stats.MajorGCs == 0 {
		t.Fatal("old-gen pressure never triggered a major collection")
	}
}

func TestGCStatsProgression(t *testing.T) {
	h := newHeap(t)
	r := rec()
	id := h.Alloc(r, 1, 1<<10, 0)
	h.AddRoot(id)
	h.MinorGC(r)
	if h.Stats.AllocatedObjs == 0 || h.Stats.AllocatedBytes == 0 {
		t.Fatal("allocation stats empty")
	}
	if h.Stats.CopiedBytes == 0 {
		t.Fatal("no copied bytes after GC of live data")
	}
	if h.Stats.GCInstructions == 0 {
		t.Fatal("collector charged no instructions")
	}
}

func TestWriteBarrierOnlyForOldToYoung(t *testing.T) {
	h := newHeap(t)
	r := rec()
	a := h.Alloc(r, 1, 64, 1)
	b := h.Alloc(r, 1, 64, 0)
	h.SetRef(r, a, 0, b) // young -> young: no remset entry
	if len(h.remset) != 0 {
		t.Fatalf("young->young ref entered remset")
	}
}

// TestPageBoundaryIDs allocates past two object-table pages, collects,
// and checks the table across the page boundaries: a slot never moves once
// its page exists, objects on both sides report their own address, size
// and liveness, and freed IDs come back last-freed first (the collector
// frees in ascending ID order) before any new slot is opened.
func TestPageBoundaryIDs(t *testing.T) {
	cfg := testCfg()
	cfg.NewGenBytes = 4 << 20
	h, err := NewHeap(mem.NewAddrSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rec()
	const n = 2*pageSize + 100
	type placed struct {
		addr mem.Addr
		size uint32
	}
	at := map[ObjectID]placed{}
	var edge *object
	for i := 0; i < n; i++ {
		size := uint32(16 + 8*(i%5))
		id := h.Alloc(r, 0, size, 0)
		if want := ObjectID(i + 1); id != want {
			t.Fatalf("allocation %d got ID %d, want %d", i, id, want)
		}
		last := r.Handoff().Items[len(r.Handoff().Items)-1]
		at[id] = placed{last.Addr, size}
		if id == pageSize-1 {
			edge = h.obj(id)
		}
		if id%2 == 0 {
			h.AddRoot(id)
		}
	}
	if h.obj(pageSize-1) != edge {
		t.Fatal("a slot moved when later pages were added")
	}
	for _, id := range []ObjectID{pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 1, 2 * pageSize, n} {
		if p := at[id]; h.Addr(id) != p.addr || h.Size(id) != p.size || !h.IsLive(id) {
			t.Fatalf("ID %d: addr %#x size %d live %v, want %#x %d true", id, h.Addr(id), h.Size(id), h.IsLive(id), p.addr, p.size)
		}
	}

	h.ClearStack(0)
	h.MinorGC(r)
	for _, id := range []ObjectID{pageSize - 1, pageSize, pageSize + 1, 2*pageSize - 1, 2 * pageSize, n} {
		if live := h.IsLive(id); live != (id%2 == 0) {
			t.Fatalf("ID %d live=%v after GC, want %v", id, live, id%2 == 0)
		}
		if id%2 == 0 && h.Size(id) != at[id].size {
			t.Fatalf("ID %d size %d after GC, want %d", id, h.Size(id), at[id].size)
		}
	}
	// The odd IDs were freed in ascending order; reuse pops the highest.
	for want := n - 1; want >= 1; want -= 2 {
		if got := h.Alloc(r, 0, 16, 0); got != ObjectID(want) {
			t.Fatalf("recycled ID %d, want %d", got, want)
		}
	}
	if got := h.Alloc(r, 0, 16, 0); got != n+1 {
		t.Fatalf("first ID after the free list ran dry is %d, want %d", got, n+1)
	}
}

// TestSteadyStateGCAllocs: on a warm heap, a collection costs a fixed
// handful of Go allocations whatever its size — its trace is sized from
// the previous one, and the collector's scratch is reused — and an
// unplayed collection allocates only the returned GC. A rooted holder
// keeps the last 1000 allocations alive, so every collection copies them.
func TestSteadyStateGCAllocs(t *testing.T) {
	const window = 1000
	h := newHeap(t)
	r := rec()
	holder := h.Alloc(r, 0, 8*window, window)
	h.AddRoot(holder)
	next := 0
	cycle := func() {
		gcs := h.Stats.MinorGCs
		for h.Stats.MinorGCs == gcs {
			r.Reset("op", true)
			h.SetRef(r, holder, next%window, h.Alloc(r, 0, 64, 0))
			h.ClearStack(0)
			next++
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	n := testing.AllocsPerRun(5, cycle)
	t.Logf("%v allocations per played collection", n)
	if n > 4 {
		t.Fatalf("an allocation loop spanning one played minor GC made %v Go allocations, want <= 4", n)
	}
	if n := testing.AllocsPerRun(5, func() { h.MinorGC(nil) }); n > 1 {
		t.Fatalf("MinorGC(nil) made %v Go allocations, want 1 (the returned GC)", n)
	}
}
