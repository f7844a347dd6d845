package jvm

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// sortedIDs returns a map key set in ascending order. The collector must
// visit roots in a deterministic order: heap layout after a copying
// collection depends on visit order, and the whole simulation must replay
// exactly from a seed.
func sortedIDs(m map[ObjectID]struct{}) []ObjectID {
	out := make([]ObjectID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedTIDs returns stack-root thread IDs in ascending order.
func sortedTIDs(m map[int][]ObjectID) []int {
	out := make([]int, 0, len(m))
	for tid := range m {
		out = append(out, tid)
	}
	sort.Ints(out)
	return out
}

// MinorGC runs a stop-the-world copying collection of the new generation on
// the single collector thread, recording the collector's memory behavior
// and appending a GC pause to rec. It returns the recorded collection.
//
// The collector is deliberately single-threaded, like HotSpot 1.3.1's: the
// playback engine runs the returned trace on one processor while every
// other processor idles. That produces the GC-idle component of Figure 5,
// and is meant to produce the paper's Figure 10 (cache-to-cache transfers
// collapse during collection), which does not reproduce: the simulated
// rate rises during a collection (ROADMAP item 8).
func (h *Heap) MinorGC(rec *trace.Recorder) *trace.GC {
	// The copying collector is about to reassign addresses: close the
	// attribution epoch against the still-valid pre-GC layout.
	h.closeAttrEpoch("minor")
	gcRec := trace.NewRecorder("minor-gc", false)
	gcRec.Instr(h.cfg.GCComp, h.cfg.MinorBaseInstr)

	to := 1 - h.from
	toNext := h.surv[to].Base
	toEnd := h.surv[to].End()

	// Root scan: registered roots plus remembered-set entries (old objects
	// that may hold young references). Scanning a remset entry reads its
	// reference slots.
	var work []ObjectID
	pushYoung := func(id ObjectID) {
		if id == NilObject {
			return
		}
		o := &h.objects[id]
		if o.live && o.young && !o.mark {
			o.mark = true
			work = append(work, id)
		}
	}
	for _, id := range sortedIDs(h.roots) {
		pushYoung(id)
	}
	for _, tid := range sortedTIDs(h.stackRoots) {
		for _, id := range h.stackRoots[tid] {
			pushYoung(id)
		}
	}
	for _, id := range sortedIDs(h.remset) {
		o := &h.objects[id]
		if !o.live {
			continue
		}
		gcRec.Read(o.addr+HeaderBytes, uint32(8*len(o.refs)))
		gcRec.Instr(h.cfg.GCComp, uint32(4+2*len(o.refs)))
		for _, ref := range o.refs {
			pushYoung(ref)
		}
	}

	// Copy phase: breadth-first over live young objects.
	var copiedBytes, copiedObjs uint64
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		o := &h.objects[id]

		// Read the object where it lies, then copy it to its new home.
		gcRec.Read(o.addr, o.size)
		o.age++
		var newAddr mem.Addr
		if o.age >= h.cfg.PromoteAge || toNext+mem.Addr(o.size) > toEnd {
			newAddr = h.promote(uint64(o.size))
		} else {
			newAddr = toNext
			toNext += mem.Addr(o.size)
		}
		gcRec.Write(newAddr, o.size)
		gcRec.Instr(h.cfg.GCComp, h.cfg.PerObjInstr+uint32(h.cfg.PerByteInstr*float64(o.size)))
		o.addr = newAddr
		o.young = h.inYoung(newAddr)
		copiedBytes += uint64(o.size)
		copiedObjs++

		for _, ref := range o.refs {
			pushYoung(ref)
		}
	}

	// Sweep: free unmarked young objects, rebuild the remembered set from
	// survivors of this collection (a promoted object may still point at a
	// young survivor).
	var survivorBytes uint64
	h.remset = make(map[ObjectID]struct{})
	for i := 1; i < len(h.objects); i++ {
		o := &h.objects[i]
		if !o.live {
			continue
		}
		if o.mark {
			o.mark = false
			if o.young {
				survivorBytes += uint64(o.size)
			} else {
				h.addToRemsetIfOldWithYoungRef(ObjectID(i))
			}
			continue
		}
		if o.young {
			h.free(ObjectID(i))
		} else {
			// Untouched old object: its refs did not change, but targets
			// may have been promoted; recompute membership.
			h.addToRemsetIfOldWithYoungRef(ObjectID(i))
		}
	}

	// Reset eden and swap survivors.
	h.edenNext = h.eden.Base
	h.tlabs = make(map[int]*tlab)
	h.from = to

	h.Stats.MinorGCs++
	h.Stats.CopiedBytes += copiedBytes
	h.Stats.LiveAfterLastGC = survivorBytes + h.oldUsed
	gc := &trace.GC{
		Items:      gcRec.Finish().Items,
		LiveBytes:  h.Stats.LiveAfterLastGC,
		CopiedObjs: copiedObjs,
	}
	h.countGCInstr(gc)
	if rec != nil {
		rec.GCPause(gc)
	}

	// Promotion may have pushed the old generation past its trigger.
	if float64(h.oldUsed) > h.cfg.MajorOccupancy*float64(h.old.Size) {
		h.MajorGC(rec)
	}
	return gc
}

// promote bump-allocates promotion space in the old generation. Unlike
// allocOld it must not recurse into a collection: mid-copy, the heap is in
// no state to collect. Exhaustion here is a sizing bug.
func (h *Heap) promote(size uint64) mem.Addr {
	if h.oldUsed+size > h.old.Size {
		panic("jvm: old generation exhausted during promotion; heap misconfigured")
	}
	a := h.oldNext
	h.oldNext += mem.Addr(size)
	h.oldUsed += size
	h.Stats.PromotedBytes += size
	return a
}

func (h *Heap) addToRemsetIfOldWithYoungRef(id ObjectID) {
	o := &h.objects[id]
	for _, ref := range o.refs {
		if ref != NilObject && h.objects[ref].live && h.objects[ref].young {
			h.remset[id] = struct{}{}
			return
		}
	}
}

func (h *Heap) free(id ObjectID) {
	h.objects[id] = object{}
	h.freeIDs = append(h.freeIDs, id)
}

// MajorGC runs a stop-the-world full collection: mark everything reachable,
// promote all live young objects, and slide-compact the old generation.
// This is the slower collection whose onset past ~30 warehouses causes the
// paper's Figure 11 dip and the "dramatic performance degradation" of §4.6.
func (h *Heap) MajorGC(rec *trace.Recorder) *trace.GC {
	// As in MinorGC: attribute accrued line events before compaction
	// invalidates every object address.
	h.closeAttrEpoch("major")
	gcRec := trace.NewRecorder("major-gc", false)
	gcRec.Instr(h.cfg.GCComp, h.cfg.MajorBaseInstr)

	// Mark phase: trace the full object graph from the roots. Marking
	// reads each object's header and reference slots.
	var work []ObjectID
	push := func(id ObjectID) {
		if id == NilObject {
			return
		}
		o := &h.objects[id]
		if o.live && !o.mark {
			o.mark = true
			work = append(work, id)
		}
	}
	for _, id := range sortedIDs(h.roots) {
		push(id)
	}
	for _, tid := range sortedTIDs(h.stackRoots) {
		for _, id := range h.stackRoots[tid] {
			push(id)
		}
	}
	var markedObjs uint64
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		o := &h.objects[id]
		gcRec.Read(o.addr, HeaderBytes+uint32(8*len(o.refs)))
		gcRec.Instr(h.cfg.GCComp, h.cfg.PerObjInstr/2+uint32(2*len(o.refs)))
		markedObjs++
		for _, ref := range o.refs {
			push(ref)
		}
	}

	// Collect live objects destined for the old generation: current old
	// residents (in address order, for sliding) then promoted young.
	type liveObj struct {
		id   ObjectID
		addr mem.Addr
	}
	var oldLive, youngLive []liveObj
	for i := 1; i < len(h.objects); i++ {
		o := &h.objects[i]
		if !o.live {
			continue
		}
		if h.perm.Contains(o.addr) {
			o.mark = false // permanent objects are implicit roots; never moved
			continue
		}
		if !o.mark {
			h.free(ObjectID(i))
			continue
		}
		o.mark = false
		if o.young {
			youngLive = append(youngLive, liveObj{ObjectID(i), o.addr})
		} else {
			oldLive = append(oldLive, liveObj{ObjectID(i), o.addr})
		}
	}
	sort.Slice(oldLive, func(i, j int) bool { return oldLive[i].addr < oldLive[j].addr })

	// Compact: slide old residents down, then append promoted young.
	next := h.old.Base
	var movedBytes, relocated uint64
	place := func(id ObjectID, alwaysCopy bool) {
		o := &h.objects[id]
		if alwaysCopy || o.addr != next {
			gcRec.Read(o.addr, o.size)
			gcRec.Write(next, o.size)
			gcRec.Instr(h.cfg.GCComp, h.cfg.PerObjInstr+uint32(h.cfg.PerByteInstr*float64(o.size)))
			movedBytes += uint64(o.size)
			relocated++
		}
		o.addr = next
		o.young = false
		o.age = h.cfg.PromoteAge
		next += mem.Addr(o.size)
	}
	for _, lo := range oldLive {
		place(lo.id, false)
	}
	for _, lo := range youngLive {
		place(lo.id, true)
	}

	h.oldNext = next
	h.oldUsed = uint64(next - h.old.Base)
	h.edenNext = h.eden.Base
	h.tlabs = make(map[int]*tlab)
	h.remset = make(map[ObjectID]struct{}) // no young objects remain

	h.Stats.MajorGCs++
	h.Stats.CopiedBytes += movedBytes
	h.Stats.LiveAfterLastGC = h.oldUsed
	gc := &trace.GC{
		Items:      gcRec.Finish().Items,
		Major:      true,
		LiveBytes:  h.Stats.LiveAfterLastGC,
		CopiedObjs: relocated,
	}
	h.countGCInstr(gc)
	if rec != nil {
		rec.GCPause(gc)
	}
	_ = markedObjs
	return gc
}

func (h *Heap) countGCInstr(gc *trace.GC) {
	for i := range gc.Items {
		if gc.Items[i].Kind == trace.KindInstr {
			h.Stats.GCInstructions += uint64(gc.Items[i].N)
		}
	}
}
