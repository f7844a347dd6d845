// Package jvm simulates the memory behavior of a Java virtual machine of
// the HotSpot 1.3.1 generation the paper ran: a generational heap (eden, two
// survivor semi-spaces, an old generation), per-thread TLAB bump allocation,
// a write barrier with a remembered set, and a single-threaded stop-the-world
// collector — a copying collector for the new generation and a mark-compact
// collector for the old generation.
//
// The heap holds a *real* object graph: workloads allocate objects, link
// them with SetRef, and read them back; the collector traces actual
// reachability and copies actual live objects, emitting its own memory
// references into the operation trace. That realism is what makes the
// paper's GC observations reproducible here: Figure 11's live-memory
// scaling (and its dip once old-generation compaction begins) and Figure
// 9's modest GC share of total time. The single-threaded collector is also
// meant to produce Figure 10's collapse of cache-to-cache transfers during
// collection; that one does not reproduce (ROADMAP item "The Fig 10
// collapse does not reproduce").
//
// Contract: workload code may only retain ObjectIDs that are reachable from
// registered roots. IDs of unreachable objects are recycled by the collector.
package jvm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/obs/attr"
	"repro/internal/trace"
)

// ObjectID names a heap object. IDs are stable across copying collections
// (only addresses move); IDs of collected objects are recycled.
type ObjectID uint32

// NilObject is the null reference.
const NilObject ObjectID = 0

// HeaderBytes is the object header size; it is also the minimum object size.
const HeaderBytes = 16

// Config sizes the simulated heap. All sizes in bytes. The defaults model
// the paper's tuning (1424 MB heap, 400 MB new generation) scaled down ~20×
// so that simulations run at workstation speed; the scaling preserves the
// ratios that drive GC behavior.
type Config struct {
	HeapBytes      uint64  // total heap
	NewGenBytes    uint64  // eden + two survivors
	PromoteAge     uint8   // survived copies before promotion to old gen
	MajorOccupancy float64 // old-gen occupancy fraction that triggers a major GC

	// GCComp is the code component the collector's instructions belong to.
	GCComp mem.ComponentID
}

// The heap's fixed shape and the collector's cost model.
const (
	survivorFrac float64 = 0.10     // fraction of new gen per survivor space
	tlabBytes    uint64  = 16 << 10 // per-thread allocation buffer
	largeObject  uint64  = 32 << 10 // objects >= this allocate directly in old gen

	// minorBaseInstr/majorBaseInstr are fixed per-collection path lengths;
	// perObjInstr and perByteInstr scale with copied work.
	minorBaseInstr uint32  = 30_000
	majorBaseInstr uint32  = 150_000
	perObjInstr    uint32  = 24
	perByteInstr   float64 = 0.3
)

// DefaultConfig returns the scaled-down default heap configuration.
func DefaultConfig() Config {
	return Config{
		HeapBytes:      72 << 20,
		NewGenBytes:    20 << 20,
		PromoteAge:     2,
		MajorOccupancy: 0.80,
	}
}

func (c Config) validate() error {
	if c.NewGenBytes >= c.HeapBytes {
		return fmt.Errorf("jvm: new gen (%d) must be smaller than heap (%d)", c.NewGenBytes, c.HeapBytes)
	}
	if c.MajorOccupancy <= 0 || c.MajorOccupancy > 1 {
		return fmt.Errorf("jvm: major occupancy %v out of (0, 1]", c.MajorOccupancy)
	}
	return nil
}

// The object table is paged: pageSize objects per page, each page allocated
// once and never copied, so a growing heap never re-copies its table.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

type object struct {
	addr  mem.Addr
	size  uint32
	refs  []ObjectID
	age   uint8
	young bool
	live  bool // slot in use (false = recycled)
	mark  bool // scratch for GC
	// site is the interned allocation-site label (0 = unlabeled). It moves
	// with the object across copying collections, which is what lets the
	// attribution layer keep address ranges mapped to sites as the heap
	// reshapes itself.
	site uint16
}

// Stats reports collector activity.
type Stats struct {
	MinorGCs        uint64
	MajorGCs        uint64
	AllocatedBytes  uint64
	LiveAfterLastGC uint64 // heap bytes in use immediately after the last GC
}

// Heap is one simulated JVM heap. Not safe for concurrent use; the
// simulator is single-threaded per run.
type Heap struct {
	cfg Config

	eden mem.Region
	surv [2]mem.Region
	old  mem.Region
	perm mem.Region // permanent region: monitors, statics; never collected

	from int // index of the from-survivor (live objects reside here)

	edenNext mem.Addr
	oldNext  mem.Addr
	permNext mem.Addr

	// pages is the object table, indexed by ObjectID through obj; slots
	// counts the IDs handed out so far (slot 0 = NilObject). A freed ID
	// goes on freeIDs and is reused last-in, first-out before a new slot.
	pages   []*[pageSize]object
	slots   int
	freeIDs []ObjectID
	roots   map[ObjectID]struct{}
	remset  map[ObjectID]struct{} // old objects that may hold young refs
	// stackRoots model each thread's stack/registers: every allocation is
	// reachable from its allocating thread's frame until the thread
	// finishes the operation (ClearStack). Without them, a collection
	// triggered mid-construction would reap an object that has been
	// allocated but not yet linked into the graph.
	stackRoots map[int][]ObjectID
	tlabs      map[int]*tlab
	oldUsed    uint64 // bytes bump-allocated in old gen since last compaction

	monitorSeq uint64

	// Collector scratch, reused by every collection: the mark stack and
	// the sorted root order. minorItems/majorItems are the item counts of
	// the last collection of each kind, which size the next one's trace.
	work                   []ObjectID
	sortBuf                []ObjectID
	tidBuf                 []int
	minorItems, majorItems int
	// spans is SiteResolver's buffer, valid until the next collection.
	spans []siteSpan

	// Allocation-site attribution: sites interns labels (index 0 =
	// unlabeled), curSite tracks each thread's current site, and attrc,
	// when non-nil, is the attribution collector whose epochs close at
	// every GC boundary (addresses are about to be reassigned).
	sites   []string
	siteIDs map[string]uint16
	curSite map[int]uint16
	attrc   *attr.Collector

	Stats Stats
}

type tlab struct {
	cur, end mem.Addr
}

// NewHeap carves the heap's regions out of the machine's address space.
func NewHeap(space *mem.AddrSpace, cfg Config) (*Heap, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	survBytes := uint64(float64(cfg.NewGenBytes) * survivorFrac)
	edenBytes := cfg.NewGenBytes - 2*survBytes
	h := &Heap{
		cfg:        cfg,
		eden:       space.Reserve("heap:eden", edenBytes),
		old:        space.Reserve("heap:old", cfg.HeapBytes-cfg.NewGenBytes),
		perm:       space.Reserve("heap:perm", 4<<20),
		roots:      make(map[ObjectID]struct{}),
		remset:     make(map[ObjectID]struct{}),
		stackRoots: make(map[int][]ObjectID),
		tlabs:      make(map[int]*tlab),
		pages:      []*[pageSize]object{new([pageSize]object)},
		slots:      1, // slot 0 = NilObject
		sites:      []string{""},
		siteIDs:    make(map[string]uint16),
		curSite:    make(map[int]uint16),
	}
	h.surv[0] = space.Reserve("heap:surv0", survBytes)
	h.surv[1] = space.Reserve("heap:surv1", survBytes)
	h.edenNext = h.eden.Base
	h.oldNext = h.old.Base
	h.permNext = h.perm.Base
	return h, nil
}

// MustNewHeap is NewHeap for static configurations; it panics on error.
func MustNewHeap(space *mem.AddrSpace, cfg Config) *Heap {
	h, err := NewHeap(space, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// obj returns the table slot of id, which must be below h.slots.
func (h *Heap) obj(id ObjectID) *object {
	return &h.pages[id>>pageShift][id&(pageSize-1)]
}

// Addr returns the current address of an object. Addresses are only valid
// until the next collection.
func (h *Heap) Addr(id ObjectID) mem.Addr { return h.obj(id).addr }

// NumRefs returns the number of reference slots in the object.
func (h *Heap) NumRefs(id ObjectID) int { return len(h.obj(id).refs) }

// IsLive reports whether the ID currently names an object (for tests).
func (h *Heap) IsLive(id ObjectID) bool {
	return id != NilObject && int(id) < h.slots && h.obj(id).live
}

// EdenUsed returns bytes currently bump-allocated in eden (including
// unparceled TLAB space).
func (h *Heap) EdenUsed() uint64 { return uint64(h.edenNext - h.eden.Base) }

// OldUsed returns bytes in use in the old generation (including garbage not
// yet compacted away — this is the "heap size" a JVM would report, and what
// Figure 11 plots).
func (h *Heap) OldUsed() uint64 { return h.oldUsed }

// AddRoot registers a GC root.
func (h *Heap) AddRoot(id ObjectID) {
	if id != NilObject {
		h.roots[id] = struct{}{}
	}
}

// RemoveRoot unregisters a GC root.
func (h *Heap) RemoveRoot(id ObjectID) { delete(h.roots, id) }

func (h *Heap) newID() ObjectID {
	if n := len(h.freeIDs); n > 0 {
		id := h.freeIDs[n-1]
		h.freeIDs = h.freeIDs[:n-1]
		return id
	}
	if h.slots&(pageSize-1) == 0 {
		h.pages = append(h.pages, new([pageSize]object))
	}
	h.slots++
	return ObjectID(h.slots - 1)
}

func pad(size uint32) uint32 {
	if size < HeaderBytes {
		size = HeaderBytes
	}
	return (size + 7) &^ 7
}

// Alloc allocates an object of the given size with nRefs reference slots,
// on behalf of thread tid, recording the initializing writes (Java zeroes
// new objects). It may trigger a stop-the-world collection, which is
// recorded into rec. The new object is unreachable until rooted or linked;
// allocate-then-link promptly.
func (h *Heap) Alloc(rec *trace.Recorder, tid int, size uint32, nRefs int) ObjectID {
	size = pad(size)
	var addr mem.Addr
	if uint64(size) >= largeObject {
		addr = h.allocOld(rec, uint64(size))
	} else {
		addr = h.allocTLAB(rec, tid, uint64(size))
	}
	id := h.newID()
	o := h.obj(id)
	*o = object{addr: addr, size: size, young: h.inYoung(addr), live: true, site: h.curSite[tid]}
	if nRefs > 0 {
		o.refs = make([]ObjectID, nRefs)
	}
	h.Stats.AllocatedBytes += uint64(size)
	h.stackRoots[tid] = append(h.stackRoots[tid], id)
	rec.Write(addr, size) // zeroing + header init
	return id
}

// SetAllocSite sets thread tid's current allocation-site label: objects the
// thread allocates from here on carry it (until the next SetAllocSite), and
// the attribution layer rolls line events up to these labels. An empty
// label reverts the thread to unlabeled. Labels are interned; stamping an
// object costs one uint16 copy, so workloads annotate their allocation
// clusters unconditionally.
func (h *Heap) SetAllocSite(tid int, site string) {
	if site == "" {
		delete(h.curSite, tid)
		return
	}
	id, ok := h.siteIDs[site]
	if !ok {
		if len(h.sites) > 0xFFFF {
			// Site table full: further labels fold into the last slot
			// rather than panicking mid-run.
			id = uint16(len(h.sites) - 1)
		} else {
			id = uint16(len(h.sites))
			h.sites = append(h.sites, site)
			h.siteIDs[site] = id
		}
	}
	h.curSite[tid] = id
}

// SetAttr attaches the attribution collector: every collection boundary
// closes an attribution epoch against the pre-GC address layout, so line
// events always resolve to the object that owned the address when the
// events happened.
func (h *Heap) SetAttr(c *attr.Collector) { h.attrc = c }

// closeAttrEpoch resolves the current epoch's line events against the
// current (pre-move) heap layout. Called at the top of every collection.
func (h *Heap) closeAttrEpoch(trigger string) {
	if h.attrc != nil {
		h.attrc.CloseEpoch(h.SiteResolver(), trigger)
	}
}

// siteSpan is one site-labeled object's address range.
type siteSpan struct {
	base, end mem.Addr
	site      uint16
}

// SiteResolver returns a resolver over the current addresses of all
// site-labeled live objects (unlabeled objects defer to the collector's
// region fallback). The snapshot is sorted once; lookups binary-search.
// Addresses are only valid until the next collection — which is exactly
// the window the attribution epochs cover — so the snapshot lives in a
// heap-owned buffer that the next SiteResolver call overwrites. The
// buffer is sized from a count of the labeled live objects before it is
// filled, rather than grown by append.
func (h *Heap) SiteResolver() attr.Resolver {
	n := 0
	for i := 1; i < h.slots; i++ {
		if o := h.obj(ObjectID(i)); o.live && o.site != 0 {
			n++
		}
	}
	if cap(h.spans) < n {
		// Sized once, with a quarter's headroom: the labeled live set
		// grows from one collection to the next.
		h.spans = make([]siteSpan, 0, n+n/4)
	}
	spans := h.spans[:0]
	for i := 1; i < h.slots; i++ {
		o := h.obj(ObjectID(i))
		if o.live && o.site != 0 {
			spans = append(spans, siteSpan{o.addr, o.addr + mem.Addr(o.size), o.site})
		}
	}
	// Live objects never share a base, so the order is total.
	slices.SortFunc(spans, func(a, b siteSpan) int { return cmp.Compare(a.base, b.base) })
	h.spans = spans
	sites := h.sites
	return func(a uint64) (string, bool) {
		// Objects never overlap, so the candidate is the last span starting
		// at or before a. A line address can precede its object's base
		// (objects need not be line-aligned); attribute the line to the
		// object covering its first byte.
		i := sort.Search(len(spans), func(i int) bool { return spans[i].base > a })
		if i == 0 {
			return "", false
		}
		s := &spans[i-1]
		if a < s.end {
			return sites[s.site], true
		}
		return "", false
	}
}

// ClearStack pops thread tid's stack roots: objects it allocated are no
// longer pinned by its frame. Workloads call this at the end of each
// operation; anything not linked into the rooted graph becomes garbage.
func (h *Heap) ClearStack(tid int) {
	if s := h.stackRoots[tid]; len(s) > 0 {
		h.stackRoots[tid] = s[:0]
	}
}

// AllocPermanent allocates a never-collected, never-moved object (class
// metadata, monitors, JVM statics). Permanent objects are implicit roots.
func (h *Heap) AllocPermanent(rec *trace.Recorder, size uint32) ObjectID {
	size = pad(size)
	if uint64(h.permNext-h.perm.Base)+uint64(size) > h.perm.Size {
		panic("jvm: permanent region exhausted")
	}
	addr := h.permNext
	h.permNext += mem.Addr(size)
	id := h.newID()
	o := h.obj(id)
	*o = object{addr: addr, size: size, live: true}
	h.AddRoot(id)
	rec.Write(addr, size)
	return id
}

func (h *Heap) inYoung(a mem.Addr) bool {
	return h.eden.Contains(a) || h.surv[0].Contains(a) || h.surv[1].Contains(a)
}

func (h *Heap) allocTLAB(rec *trace.Recorder, tid int, size uint64) mem.Addr {
	t := h.tlabs[tid]
	if t == nil {
		t = &tlab{}
		h.tlabs[tid] = t
	}
	if t.cur+mem.Addr(size) > t.end {
		// Need a fresh TLAB from eden.
		want := tlabBytes
		if size > want {
			want = size
		}
		if uint64(h.edenNext-h.eden.Base)+want > h.eden.Size {
			h.MinorGC(rec)
			// After a minor GC eden is empty; if the request still cannot
			// fit, the configuration is broken.
			if want > h.eden.Size {
				panic("jvm: allocation larger than eden")
			}
		}
		t.cur = h.edenNext
		t.end = h.edenNext + mem.Addr(want)
		h.edenNext += mem.Addr(want)
	}
	a := t.cur
	t.cur += mem.Addr(size)
	return a
}

func (h *Heap) allocOld(rec *trace.Recorder, size uint64) mem.Addr {
	if h.oldUsed+size > h.old.Size {
		h.MajorGC(rec)
		if h.oldUsed+size > h.old.Size {
			panic("jvm: old generation exhausted even after major GC")
		}
	}
	a := h.oldNext
	h.oldNext += mem.Addr(size)
	h.oldUsed += size
	return a
}

// SetRef stores a reference into the object's slot, recording the store and
// maintaining the generational write barrier (remembered set).
func (h *Heap) SetRef(rec *trace.Recorder, from ObjectID, slot int, to ObjectID) {
	o := h.obj(from)
	o.refs[slot] = to
	rec.Write(o.addr+HeaderBytes+mem.Addr(slot)*8, 8)
	if to != NilObject && !o.young && h.obj(to).young {
		h.remset[from] = struct{}{}
	}
}

// GetRef loads a reference from the object's slot, recording the load.
func (h *Heap) GetRef(rec *trace.Recorder, from ObjectID, slot int) ObjectID {
	o := h.obj(from)
	rec.Read(o.addr+HeaderBytes+mem.Addr(slot)*8, 8)
	return o.refs[slot]
}

// fieldAddr returns the address of the field-th 8-byte scalar slot, clamped
// into the object so an out-of-range index cannot touch a neighbor.
func (h *Heap) fieldAddr(id ObjectID, field int) mem.Addr {
	o := h.obj(id)
	off := mem.Addr(HeaderBytes + field*8)
	if off+8 > mem.Addr(o.size) {
		off = mem.Addr(o.size) - 8
	}
	return o.addr + off
}

// ReadField records a load of one non-reference field (8 bytes) at the
// given field index.
func (h *Heap) ReadField(rec *trace.Recorder, id ObjectID, field int) {
	rec.Read(h.fieldAddr(id, field), 8)
}

// WriteField records a store of one non-reference field (8 bytes).
func (h *Heap) WriteField(rec *trace.Recorder, id ObjectID, field int) {
	rec.Write(h.fieldAddr(id, field), 8)
}

// ReadObject records a scan of the whole object (e.g. a field-by-field copy
// or a toString-style traversal).
func (h *Heap) ReadObject(rec *trace.Recorder, id ObjectID) {
	o := h.obj(id)
	rec.Read(o.addr, o.size)
}
