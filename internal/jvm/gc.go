package jvm

import (
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/trace"
)

// sortedIDs returns a map key set in ascending order, in the heap's sort
// buffer (valid until the next call). The collector must visit roots in a
// deterministic order: heap layout after a copying collection depends on
// visit order, and the whole simulation must replay exactly from a seed.
func (h *Heap) sortedIDs(m map[ObjectID]struct{}) []ObjectID {
	out := h.sortBuf[:0]
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	h.sortBuf = out
	return out
}

// sortedTIDs returns stack-root thread IDs in ascending order, in the
// heap's thread buffer (valid until the next call).
func (h *Heap) sortedTIDs() []int {
	out := h.tidBuf[:0]
	for tid := range h.stackRoots {
		out = append(out, tid)
	}
	slices.Sort(out)
	h.tidBuf = out
	return out
}

// gcRecorder returns the recorder a collection records into. A played
// collection (rec != nil) gets a fresh recorder sized to hint items, the
// previous played collection of its kind: its trace belongs to the op that
// plays it. An unplayed one records into the heap's scratch recorder,
// reset, since nothing reads its trace.
func (h *Heap) gcRecorder(rec *trace.Recorder, tag string, hint int) *trace.Recorder {
	if rec != nil {
		return trace.NewRecorderCap(tag, hint)
	}
	if h.scratch == nil {
		h.scratch = trace.NewRecorder(tag)
	}
	h.scratch.Reset(tag, false)
	return h.scratch
}

// finishGC counts the collection's instructions and, when it is played,
// hands gc its trace, keeps the trace's length in *hint to size the next
// collection of its kind, and appends the pause to rec.
func (h *Heap) finishGC(rec, gcRec *trace.Recorder, gc *trace.GC, hint *int) {
	if rec == nil {
		h.countGCInstr(gcRec.Handoff().Items) // the scratch keeps its items
		return
	}
	gc.Items = gcRec.Finish().Items
	h.countGCInstr(gc.Items)
	*hint = len(gc.Items)
	rec.GCPause(gc)
}

func (h *Heap) countGCInstr(items []trace.Item) {
	for i := range items {
		if items[i].Kind == trace.KindInstr {
			h.Stats.GCInstructions += uint64(items[i].N)
		}
	}
}

// MinorGC runs a stop-the-world copying collection of the new generation on
// the single collector thread, recording the collector's memory behavior
// and appending a GC pause to rec. It returns the recorded collection.
// With rec nil the collection is not played: its trace is recorded into a
// reused scratch buffer only to count GCInstructions, and the returned
// GC's Items are nil.
//
// The collector is deliberately single-threaded, like HotSpot 1.3.1's: the
// playback engine runs the returned trace on one processor while every
// other processor idles. That produces the GC-idle component of Figure 5,
// and is meant to produce the paper's Figure 10 (cache-to-cache transfers
// collapse during collection), which does not reproduce: the simulated
// rate rises during a collection (ROADMAP item "The Fig 10 collapse does
// not reproduce").
func (h *Heap) MinorGC(rec *trace.Recorder) *trace.GC {
	// The copying collector is about to reassign addresses: close the
	// attribution epoch against the still-valid pre-GC layout.
	h.closeAttrEpoch("minor")
	gcRec := h.gcRecorder(rec, "minor-gc", h.minorItems)
	gcRec.Instr(h.cfg.GCComp, minorBaseInstr)

	to := 1 - h.from
	toNext := h.surv[to].Base
	toEnd := h.surv[to].End()

	// Root scan: registered roots plus remembered-set entries (old objects
	// that may hold young references). Scanning a remset entry reads its
	// reference slots.
	work := h.work[:0]
	pushYoung := func(id ObjectID) {
		if id == NilObject {
			return
		}
		o := h.obj(id)
		if o.live && o.young && !o.mark {
			o.mark = true
			work = append(work, id)
		}
	}
	for _, id := range h.sortedIDs(h.roots) {
		pushYoung(id)
	}
	for _, tid := range h.sortedTIDs() {
		for _, id := range h.stackRoots[tid] {
			pushYoung(id)
		}
	}
	for _, id := range h.sortedIDs(h.remset) {
		o := h.obj(id)
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
		o := h.obj(id)

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
		gcRec.Instr(h.cfg.GCComp, perObjInstr+uint32(perByteInstr*float64(o.size)))
		o.addr = newAddr
		o.young = h.inYoung(newAddr)
		copiedBytes += uint64(o.size)
		copiedObjs++

		for _, ref := range o.refs {
			pushYoung(ref)
		}
	}

	h.work = work

	// Sweep: free unmarked young objects, rebuild the remembered set from
	// survivors of this collection (a promoted object may still point at a
	// young survivor).
	var survivorBytes, freedBytes uint64
	clear(h.remset)
	for i := 1; i < h.slots; i++ {
		o := h.obj(ObjectID(i))
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
			freedBytes += uint64(o.size)
			h.free(ObjectID(i))
		} else {
			// Untouched old object: its refs did not change, but targets
			// may have been promoted; recompute membership.
			h.addToRemsetIfOldWithYoungRef(ObjectID(i))
		}
	}

	// Reset eden and swap survivors. Every thread takes a fresh TLAB.
	h.edenNext = h.eden.Base
	clear(h.tlabs)
	h.from = to

	h.Stats.MinorGCs++
	h.Stats.CopiedBytes += copiedBytes
	h.Stats.LiveAfterLastGC = survivorBytes + h.oldUsed
	gc := &trace.GC{
		LiveBytes:  h.Stats.LiveAfterLastGC,
		CopiedObjs: copiedObjs,
		FreedBytes: freedBytes,
	}
	h.finishGC(rec, gcRec, gc, &h.minorItems)

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
	o := h.obj(id)
	for _, ref := range o.refs {
		if ref != NilObject && h.obj(ref).live && h.obj(ref).young {
			h.remset[id] = struct{}{}
			return
		}
	}
}

func (h *Heap) free(id ObjectID) {
	*h.obj(id) = object{}
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
	gcRec := h.gcRecorder(rec, "major-gc", h.majorItems)
	gcRec.Instr(h.cfg.GCComp, majorBaseInstr)

	// Mark phase: trace the full object graph from the roots. Marking
	// reads each object's header and reference slots.
	work := h.work[:0]
	push := func(id ObjectID) {
		if id == NilObject {
			return
		}
		o := h.obj(id)
		if o.live && !o.mark {
			o.mark = true
			work = append(work, id)
		}
	}
	for _, id := range h.sortedIDs(h.roots) {
		push(id)
	}
	for _, tid := range h.sortedTIDs() {
		for _, id := range h.stackRoots[tid] {
			push(id)
		}
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		o := h.obj(id)
		gcRec.Read(o.addr, HeaderBytes+uint32(8*len(o.refs)))
		gcRec.Instr(h.cfg.GCComp, perObjInstr/2+uint32(2*len(o.refs)))
		for _, ref := range o.refs {
			push(ref)
		}
	}
	h.work = work

	// Collect live objects destined for the old generation: current old
	// residents (in address order, for sliding) then promoted young.
	type liveObj struct {
		id   ObjectID
		addr mem.Addr
	}
	var oldLive, youngLive []liveObj
	var freedBytes uint64
	for i := 1; i < h.slots; i++ {
		o := h.obj(ObjectID(i))
		if !o.live {
			continue
		}
		if h.perm.Contains(o.addr) {
			o.mark = false // permanent objects are implicit roots; never moved
			continue
		}
		if !o.mark {
			freedBytes += uint64(o.size)
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
		o := h.obj(id)
		if alwaysCopy || o.addr != next {
			gcRec.Read(o.addr, o.size)
			gcRec.Write(next, o.size)
			gcRec.Instr(h.cfg.GCComp, perObjInstr+uint32(perByteInstr*float64(o.size)))
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
	clear(h.tlabs)
	clear(h.remset) // no young objects remain

	h.Stats.MajorGCs++
	h.Stats.CopiedBytes += movedBytes
	h.Stats.LiveAfterLastGC = h.oldUsed
	gc := &trace.GC{
		Major:      true,
		LiveBytes:  h.Stats.LiveAfterLastGC,
		CopiedObjs: relocated,
		FreedBytes: freedBytes,
	}
	h.finishGC(rec, gcRec, gc, &h.majorItems)
	return gc
}
