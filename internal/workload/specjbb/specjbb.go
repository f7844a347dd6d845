// Package specjbb models the SPECjbb2000 benchmark: a wholesale company
// with a configurable number of warehouses, each owned by one worker
// thread, with the "database" emulated as trees of Java objects in the
// measured heap (§2.1 of the paper).
//
// That in-heap emulated database is the root of every behavioral difference
// the paper found between SPECjbb and ECperf:
//
//   - live heap memory grows linearly with warehouses (Figure 11),
//   - the data-cache miss rate rises with warehouse count (Figure 13),
//   - shared 1 MB L2s hurt instead of help (Figure 16),
//   - while cross-thread communication stays concentrated in a few hot
//     lock lines (Figure 14), because each thread updates only its own
//     warehouse's trees.
//
// The transaction mix follows TPC-C's flavor (SPECjbb was "inspired by"
// TPC-C): NewOrder and Payment dominate, with OrderStatus, Delivery, and
// StockLevel filling the remainder.
package specjbb

import (
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// The scaled benchmark. Byte sizes are scaled-down versions of the real
// benchmark (the paper's ~13 MB/warehouse becomes ~0.8 MB/warehouse)
// preserving the linear-growth property that matters.
const (
	districts         = 10  // districts per warehouse
	customers         = 400 // customers per warehouse
	items             = 800 // stock items per warehouse
	ordersPerDistrict = 12  // order ring capacity per district

	customerBytes  uint32 = 160
	itemBytes      uint32 = 224
	orderBytes     uint32 = 96
	orderLineBytes uint32 = 64
	historyBytes   uint32 = 96

	orderLinesMin, orderLinesMax = 5, 15

	// garbagePerTxn is extra short-lived allocation per transaction
	// (strings, iterators, BigDecimal temporaries).
	garbagePerTxn uint32 = 384

	// indexBytes sizes each warehouse's B-tree index nodes; indexDepth is
	// the number of index lines touched per key lookup. SPECjbb stores its
	// emulated database in trees of Java objects (§2.1); these walks are
	// the tree traversals.
	indexBytes uint32 = 64 << 10
	indexDepth        = 8

	// Path lengths per transaction type, in instructions of the benchmark
	// component.
	newOrderInstr    uint32 = 26_000
	paymentInstr     uint32 = 17_000
	orderStatusInstr uint32 = 14_000
	deliveryInstr    uint32 = 20_000
	stockLevelInstr  uint32 = 23_000
	perLineInstr     uint32 = 300 // extra per order line processed

	// zipfSkew shapes customer/item popularity.
	zipfSkew float64 = 0.35
)

// Components are the code components SPECjbb executes.
type Components struct {
	App *ifetch.Component // the benchmark + JVM interpreter/JIT code
	JVM *ifetch.Component // allocation/runtime slow paths
}

// warehouse is the Go-side index of one warehouse's object trees. All
// objects live in the simulated heap; this struct holds their IDs.
type warehouse struct {
	obj       jvm.ObjectID
	mon       *jvm.Monitor
	index     jvm.ObjectID // B-tree index node storage
	districts []*district
	customers []jvm.ObjectID
	items     []jvm.ObjectID
}

type district struct {
	obj       jvm.ObjectID
	orderRing jvm.ObjectID // ref-array object, capacity ordersPerDistrict
	head      int          // next slot to overwrite
	count     int
}

// order bookkeeping is entirely in-heap: an order object references its
// customer and a line-array object referencing line objects.

// Workload is one SPECjbb instance bound to a heap.
type Workload struct {
	comps Components
	heap  *jvm.Heap

	companyMon *jvm.Monitor
	companyObj jvm.ObjectID
	statsObj   jvm.ObjectID // read-mostly company statistics block
	edenMon    *jvm.Monitor // JVM allocation slow-path lock
	warehouses []*warehouse

	rng *simrand.Rand
	// custZipf and itemZipf are the popularity tables every thread's
	// sampler shares (simrand.Zipf.With).
	custZipf, itemZipf *simrand.Zipf

	// Txns counts completed transactions by type.
	Txns map[string]uint64
}

// New builds the company and its warehouse object trees in the heap. The
// construction's memory traffic is recorded into a throwaway recorder (the
// paper measures steady state, not ramp-up); the heap state it leaves
// behind is what matters. After building, the trees are aged into the old
// generation with two forced minor collections, as they would be minutes
// into a real run.
func New(warehouses int, heap *jvm.Heap, comps Components, rng *simrand.Rand) *Workload {
	w := &Workload{
		comps:    comps,
		heap:     heap,
		rng:      rng,
		custZipf: simrand.NewZipf(customers, zipfSkew),
		itemZipf: simrand.NewZipf(items, zipfSkew),
		Txns:     make(map[string]uint64),
	}
	rec := trace.NewRecorder("jbb-build")
	w.companyMon = heap.NewMonitor(rec)
	w.companyObj = heap.AllocPermanent(rec, 640)
	w.statsObj = heap.AllocPermanent(rec, 12*64)
	w.edenMon = heap.NewMonitor(rec)
	for i := 0; i < warehouses; i++ {
		w.warehouses = append(w.warehouses, w.buildWarehouse(rec, i))
		rec.Reset("jbb-build", false) // construction traffic is discarded
	}
	// Construction frames are done; unpin, then promote the long-lived
	// trees as they would be minutes into a real run.
	for i := 0; i < warehouses; i++ {
		heap.ClearStack(i)
	}
	heap.MinorGC(nil)
	heap.MinorGC(nil)
	return w
}

func (w *Workload) buildWarehouse(rec *trace.Recorder, idx int) *warehouse {
	h := w.heap
	wh := &warehouse{mon: h.NewMonitor(rec)}
	h.SetAllocSite(idx, "jbb.warehouse")
	wh.obj = h.Alloc(rec, idx, 128, 3)
	h.AddRoot(wh.obj)
	h.SetAllocSite(idx, "jbb.index")
	wh.index = h.Alloc(rec, idx, indexBytes, 0) // large: lands in old gen
	h.AddRoot(wh.index)

	h.SetAllocSite(idx, "jbb.customer")
	custArr := h.Alloc(rec, idx, uint32(8*customers+jvm.HeaderBytes), customers)
	h.SetRef(rec, wh.obj, 0, custArr)
	for c := 0; c < customers; c++ {
		cust := h.Alloc(rec, idx, customerBytes, 0)
		h.SetRef(rec, custArr, c, cust)
		wh.customers = append(wh.customers, cust)
	}

	h.SetAllocSite(idx, "jbb.item")
	itemArr := h.Alloc(rec, idx, uint32(8*items+jvm.HeaderBytes), items)
	h.SetRef(rec, wh.obj, 1, itemArr)
	for s := 0; s < items; s++ {
		item := h.Alloc(rec, idx, itemBytes, 0)
		h.SetRef(rec, itemArr, s, item)
		wh.items = append(wh.items, item)
	}

	h.SetAllocSite(idx, "jbb.district")
	distArr := h.Alloc(rec, idx, uint32(8*districts+jvm.HeaderBytes), districts)
	h.SetRef(rec, wh.obj, 2, distArr)
	for d := 0; d < districts; d++ {
		dobj := h.Alloc(rec, idx, 128, 1)
		ring := h.Alloc(rec, idx, uint32(8*ordersPerDistrict+jvm.HeaderBytes), ordersPerDistrict)
		h.SetRef(rec, dobj, 0, ring)
		h.SetRef(rec, distArr, d, dobj)
		wh.districts = append(wh.districts, &district{obj: dobj, orderRing: ring})
	}
	h.SetAllocSite(idx, "")
	return wh
}

// threadSource generates transactions for one warehouse's thread.
type threadSource struct {
	w        *Workload
	wh       *warehouse
	rng      *simrand.Rand
	custZipf *simrand.Zipf
	itemZipf *simrand.Zipf
	// rec is the thread's reusable recorder: the engine consumes each op
	// fully before asking for the next, so one recorder (and one Items
	// backing array) serves every transaction of the thread.
	rec *trace.Recorder
}

// Source returns the OpSource for warehouse whID's worker thread; the
// engine's horizon ends the run.
func (w *Workload) Source(whID int) osmodel.OpSource {
	rng := w.rng.Derive(uint64(whID))
	return &threadSource{
		w:        w,
		wh:       w.warehouses[whID],
		rng:      rng,
		custZipf: w.custZipf.With(rng),
		itemZipf: w.itemZipf.With(rng),
		rec:      trace.NewRecorder(""),
	}
}

// NextOp records one transaction drawn from the SPECjbb mix.
func (s *threadSource) NextOp(tid int, now uint64) *trace.Op {
	u := s.rng.Float64()
	var op *trace.Op
	switch {
	case u < 0.435:
		op = s.newOrder(tid)
	case u < 0.865:
		op = s.payment(tid)
	case u < 0.910:
		op = s.orderStatus(tid)
	case u < 0.955:
		op = s.delivery(tid)
	default:
		op = s.stockLevel(tid)
	}
	// The operation's frame is gone: unpin its temporaries.
	s.w.heap.ClearStack(tid)
	return op
}

// companyTouch is the brief global critical section every transaction
// crosses (company-wide counters) — SPECjbb's hottest shared line.
func (s *threadSource) companyTouch(rec *trace.Recorder) {
	w := s.w
	w.companyMon.Lock(rec)
	// Company-wide counters and sequence numbers: several shared lines
	// updated under one monitor — SPECjbb's hottest communication. Field
	// indices are spaced so the three counters live on distinct lines.
	for f := 0; f < 64; f += 8 {
		w.heap.ReadField(rec, w.companyObj, f)
		w.heap.WriteField(rec, w.companyObj, f)
	}
	rec.Instr(w.comps.App.ID, 1000)
	w.companyMon.Unlock(rec)
	// Company-wide read-mostly statistics outside the lock: occasionally
	// updated, so a write by anyone invalidates every reader's copy and
	// the whole set re-fetches cache-to-cache.
	statsBase := w.heap.Addr(w.statsObj)
	for i := 0; i < 12; i++ {
		rec.Read(statsBase+uint64(i)*64, 8)
	}
	if s.rng.Bool(0.15) {
		rec.Write(statsBase+uint64(s.rng.Intn(12))*64, 8)
	}
}

// indexWalk records one B-tree key lookup: indexDepth reads spread over
// the warehouse's index nodes.
func (s *threadSource) indexWalk(rec *trace.Recorder) {
	h := s.w.heap
	base := h.Addr(s.wh.index)
	lines := int64(indexBytes / 64)
	for d := 0; d < indexDepth; d++ {
		rec.Read(base+uint64(s.rng.Int63n(lines))*64, 8)
	}
	rec.Instr(s.w.comps.App.ID, uint32(40*indexDepth))
}

// garbage allocates the transaction's short-lived temporaries. Roughly one
// in eight transactions takes the JVM's allocation slow path (TLAB refill)
// under the shared eden lock.
func (s *threadSource) garbage(rec *trace.Recorder, tid int) {
	w := s.w
	n := garbagePerTxn
	if s.rng.Intn(3) == 0 {
		// TLAB refill: the eden top pointer is one global line bumped
		// under the allocator lock — classic JVM-internal contention.
		w.edenMon.Lock(rec)
		w.heap.ReadField(rec, w.companyObj, 70)
		w.heap.WriteField(rec, w.companyObj, 70)
		rec.Instr(w.comps.JVM.ID, 800)
		w.edenMon.Unlock(rec)
	}
	w.heap.SetAllocSite(tid, "jbb.garbage")
	for n > 0 {
		sz := uint32(64 + s.rng.Intn(192))
		if sz > n {
			sz = n
		}
		w.heap.Alloc(rec, tid, sz, 0)
		n -= sz
	}
	w.heap.SetAllocSite(tid, "")
	rec.Instr(w.comps.JVM.ID, garbagePerTxn/8)
}

func (s *threadSource) newOrder(tid int) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("neworder", true)
	rec.Instr(w.comps.App.ID, newOrderInstr/2)
	s.companyTouch(rec)

	s.wh.mon.Lock(rec)
	d := s.wh.districts[s.rng.Intn(len(s.wh.districts))]
	h.ReadField(rec, d.obj, 1)
	h.WriteField(rec, d.obj, 1) // next order id

	s.indexWalk(rec)
	cust := s.wh.customers[s.custZipf.Next()]
	h.ReadObject(rec, cust)

	nlines := orderLinesMin + s.rng.Intn(orderLinesMax-orderLinesMin+1)
	h.SetAllocSite(tid, "jbb.orderline")
	lineArr := h.Alloc(rec, tid, uint32(8*nlines+jvm.HeaderBytes), nlines)
	for i := 0; i < nlines; i++ {
		s.indexWalk(rec)
		item := s.wh.items[s.itemZipf.Next()]
		h.ReadObject(rec, item)
		h.WriteField(rec, item, 2) // stock quantity
		line := h.Alloc(rec, tid, orderLineBytes, 1)
		h.SetRef(rec, line, 0, item)
		h.SetRef(rec, lineArr, i, line)
		rec.Instr(w.comps.App.ID, perLineInstr)
	}
	h.SetAllocSite(tid, "jbb.order")
	order := h.Alloc(rec, tid, orderBytes, 2)
	h.SetRef(rec, order, 0, cust)
	h.SetRef(rec, order, 1, lineArr)

	// Ring-buffer the order into the district; the displaced order becomes
	// garbage (the emulated database's steady state).
	h.SetRef(rec, d.orderRing, d.head, order)
	d.head = (d.head + 1) % ordersPerDistrict
	if d.count < ordersPerDistrict {
		d.count++
	}
	s.wh.mon.Unlock(rec)

	rec.Instr(w.comps.App.ID, newOrderInstr/2)
	s.garbage(rec, tid)
	w.Txns["neworder"]++
	return rec.Handoff()
}

func (s *threadSource) payment(tid int) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("payment", true)
	rec.Instr(w.comps.App.ID, paymentInstr/2)
	s.companyTouch(rec)

	s.wh.mon.Lock(rec)
	h.ReadField(rec, s.wh.obj, 3)
	h.WriteField(rec, s.wh.obj, 3) // warehouse YTD
	d := s.wh.districts[s.rng.Intn(len(s.wh.districts))]
	h.ReadField(rec, d.obj, 2)
	h.WriteField(rec, d.obj, 2)
	s.indexWalk(rec)
	cust := s.wh.customers[s.custZipf.Next()]
	h.ReadObject(rec, cust)
	h.WriteField(rec, cust, 1) // balance
	h.SetAllocSite(tid, "jbb.history")
	h.Alloc(rec, tid, historyBytes, 1) // history record (short-lived)
	h.SetAllocSite(tid, "")
	s.wh.mon.Unlock(rec)

	rec.Instr(w.comps.App.ID, paymentInstr/2)
	s.garbage(rec, tid)
	w.Txns["payment"]++
	return rec.Handoff()
}

func (s *threadSource) orderStatus(tid int) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("orderstatus", true)
	rec.Instr(w.comps.App.ID, orderStatusInstr)

	s.indexWalk(rec)
	cust := s.wh.customers[s.custZipf.Next()]
	h.ReadObject(rec, cust)
	d := s.wh.districts[s.rng.Intn(len(s.wh.districts))]
	if d.count > 0 {
		slot := (d.head - 1 + ordersPerDistrict) % ordersPerDistrict
		order := h.GetRef(rec, d.orderRing, slot)
		if order != jvm.NilObject {
			h.ReadObject(rec, order)
			lineArr := h.GetRef(rec, order, 1)
			if lineArr != jvm.NilObject {
				for i := 0; i < h.NumRefs(lineArr); i++ {
					if line := h.GetRef(rec, lineArr, i); line != jvm.NilObject {
						h.ReadObject(rec, line)
					}
				}
			}
		}
	}
	s.garbage(rec, tid)
	w.Txns["orderstatus"]++
	return rec.Handoff()
}

func (s *threadSource) delivery(tid int) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("delivery", true)
	rec.Instr(w.comps.App.ID, deliveryInstr)

	s.wh.mon.Lock(rec)
	for _, d := range s.wh.districts {
		if d.count == 0 {
			continue
		}
		oldest := (d.head - d.count + ordersPerDistrict) % ordersPerDistrict
		order := h.GetRef(rec, d.orderRing, oldest)
		if order != jvm.NilObject {
			cust := h.GetRef(rec, order, 0)
			if cust != jvm.NilObject {
				h.WriteField(rec, cust, 1) // balance update
			}
			h.SetRef(rec, d.orderRing, oldest, jvm.NilObject) // order becomes garbage
		}
		d.count--
	}
	s.wh.mon.Unlock(rec)
	s.garbage(rec, tid)
	w.Txns["delivery"]++
	return rec.Handoff()
}

func (s *threadSource) stockLevel(tid int) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("stocklevel", true)
	rec.Instr(w.comps.App.ID, stockLevelInstr)

	s.indexWalk(rec)
	s.indexWalk(rec)
	d := s.wh.districts[s.rng.Intn(len(s.wh.districts))]
	// Scan the district's recent orders and their items' stock levels.
	scan := d.count
	if scan > 10 {
		scan = 10
	}
	for k := 0; k < scan; k++ {
		slot := (d.head - 1 - k + 2*ordersPerDistrict) % ordersPerDistrict
		order := h.GetRef(rec, d.orderRing, slot)
		if order == jvm.NilObject {
			continue
		}
		lineArr := h.GetRef(rec, order, 1)
		if lineArr == jvm.NilObject {
			continue
		}
		for i := 0; i < h.NumRefs(lineArr); i++ {
			line := h.GetRef(rec, lineArr, i)
			if line == jvm.NilObject {
				continue
			}
			if item := h.GetRef(rec, line, 0); item != jvm.NilObject {
				h.ReadField(rec, item, 2)
			}
		}
	}
	s.garbage(rec, tid)
	w.Txns["stocklevel"]++
	return rec.Handoff()
}
