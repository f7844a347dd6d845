// Package ecperf models the ECperf benchmark (later SPECjAppServer2001) as
// deployed in the paper: a commercial application server in the middle
// tier — the measured machine — with the database, the supplier emulator,
// and the driver on separate machines reached over 100-Mbit Ethernet
// (Figure 3).
//
// Only the application server's memory behavior enters the measured
// hierarchy; the remote tiers are queueing/timing models (internal/db),
// exactly mirroring how the paper filtered the app server's processors out
// of its Simics traces.
//
// The four ECperf domains are represented by their middle-tier behavior:
//
//   - Customer domain: OLTP-like order entry/change/status BBops against
//     entity beans hydrated from the database through the connection pool
//     and kept in the server's object-level cache.
//   - Manufacturing domain: the Just-In-Time work-order cycle; in-flight
//     work orders are live middle-tier state whose population grows with
//     the injection rate until the server's concurrency bounds it — the
//     knee in Figure 11's flat ECperf curve.
//   - Supplier domain: purchase orders exchanged with the supplier
//     emulator as XML documents (allocation-heavy parse/format).
//   - Corporate domain: read-mostly reference data with very hot keys.
package ecperf

import (
	"repro/internal/appserver"
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/netsim"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// Entity-key domains (high bits of cache keys).
const (
	domCustomer uint64 = iota + 1
	domItem
	domOrder
	domCorporate
)

// Config sizes the workload by injection rate and processor count.
type Config struct {
	// OIR is the Orders Injection Rate, ECperf's scale factor.
	OIR int
	// Workers is the app server's execution-queue thread pool size.
	Workers int
	// Connections is the database connection pool size.
	Connections int
}

// DefaultConfig returns the tuned configuration for the given injection
// rate and processor count (the paper tuned pools per processor count,
// §3.2).
func DefaultConfig(oir, processors int) Config {
	return Config{
		OIR:         oir,
		Workers:     10*processors + 8,
		Connections: 6*processors + 4,
	}
}

// The calibrated middle tier.
const (
	// Entity key-space sizes (middle-tier view; the database itself is
	// remote and scales with OIR without affecting this machine).
	customers = 1500
	items     = 1000
	orders    = 2000
	corporate = 200

	beanBytes    uint32 = 288
	sessionBytes uint32 = 1024 // per-request presentation garbage
	xmlBytes     uint32 = 2048 // purchase-order document size

	// metaBytes sizes the server's runtime metadata (session tables, JNDI
	// registry, class/bean metadata); metaReads is how many metadata lines
	// each request phase walks. This is the bulk of a commercial app
	// server's data working set.
	metaBytes uint32 = 256 << 10
	metaReads        = 110

	// workOrderBytes and the in-flight shape drive Figure 11's knee.
	workOrderBytes uint32 = 2048
	inflightPerOIR        = 40
	inflightCap           = 240

	// Path lengths (instructions) by component.
	servletInstr   uint32 = 9_000
	beanInstr      uint32 = 10_000
	perEntityInstr uint32 = 6_000
	xmlInstr       uint32 = 9_000
	commitInstr    uint32 = 2_500

	// DB message sizes.
	queryReqBytes, queryRespBytes   uint32 = 300, 1400
	updateReqBytes, updateRespBytes uint32 = 700, 200

	zipfSkew float64 = 1.0
)

// Components are the middle tier's code components. The large aggregate
// footprint (servlet container + EJB runtime + server infrastructure) is
// what gives ECperf its Figure 12 instruction-miss signature.
type Components struct {
	Servlet *ifetch.Component
	EJB     *ifetch.Component
	Server  *ifetch.Component
	JVM     *ifetch.Component
}

// Workload is one middle-tier instance.
type Workload struct {
	comps Components
	heap  *jvm.Heap
	ns    *netsim.NetStack

	cache *appserver.ObjectCache
	pool  *appserver.ConnPool
	disp  *appserver.Dispatcher
	meta  jvm.ObjectID // server runtime metadata (large, permanent)

	// In-flight manufacturing work orders, rooted while open.
	inflight     []jvm.ObjectID
	inflightHead int
	inflightMax  int

	rng *simrand.Rand
	// The popularity tables every worker's samplers share
	// (simrand.Zipf.With).
	custZipf, itemZipf, ordZipf, corpZipf *simrand.Zipf

	// caller, when non-nil, is the resilient remote-call path: remote
	// round trips go through timeouts/retries/breakers, and requests may
	// be shed at the door (EnableResilience).
	caller *appserver.Caller

	// BBops counts completed operations by type; failed operations count
	// under "<tag>.fail" and are excluded from throughput.
	BBops map[string]uint64
	// FailedOps counts operations that took their error path (a remote
	// call exhausted its retries); ShedOps counts requests rejected by
	// admission control before any work.
	FailedOps uint64
	ShedOps   uint64
	// DBCalls counts database round trips (path-length diagnostics).
	DBCalls uint64
}

// New wires the middle tier together. Construction traffic is discarded;
// the heap state remains.
func New(cfg Config, heap *jvm.Heap, comps Components, ns *netsim.NetStack, rng *simrand.Rand) *Workload {
	rec := trace.NewRecorder("ecperf-build")
	max := cfg.OIR * inflightPerOIR
	if max > inflightCap {
		max = inflightCap
	}
	if max < 1 {
		max = 1
	}
	w := &Workload{
		comps:       comps,
		heap:        heap,
		ns:          ns,
		cache:       appserver.NewObjectCache(heap, rec),
		pool:        appserver.NewConnPool(heap, rec, cfg.Connections),
		disp:        appserver.NewDispatcher(heap, rec),
		inflightMax: max,
		rng:         rng,
		custZipf:    simrand.NewZipf(customers, zipfSkew),
		itemZipf:    simrand.NewZipf(items, zipfSkew),
		ordZipf:     simrand.NewZipf(orders, zipfSkew),
		corpZipf:    simrand.NewZipf(corporate, 1.1),
		BBops:       make(map[string]uint64),
	}
	w.meta = heap.AllocPermanent(rec, metaBytes)
	heap.MinorGC(nil)
	return w
}

// EnableResilience routes every remote call through the given resilient
// caller. Call it before creating worker sources.
func (w *Workload) EnableResilience(c *appserver.Caller) { w.caller = c }

// Caller returns the resilient call path, or nil when disabled.
func (w *Workload) Caller() *appserver.Caller { return w.caller }

// Heap returns the middle tier's heap.
func (w *Workload) Heap() *jvm.Heap { return w.heap }

// Cache returns the object-level cache (for hit-rate diagnostics).
func (w *Workload) Cache() *appserver.ObjectCache { return w.cache }

// workerSource drives one thread-pool worker in a closed loop at
// saturation (the paper relaxed response-time limits and drove maximum
// throughput, §2.2).
type workerSource struct {
	w        *Workload
	rng      *simrand.Rand
	custZipf *simrand.Zipf
	itemZipf *simrand.Zipf
	ordZipf  *simrand.Zipf
	corpZipf *simrand.Zipf

	// Per-operation resilience state: tnow is the record-time clock (the
	// dispatch time plus delays recorded so far, so breaker and fault
	// windows see call times close to playback times); failed is set when
	// any remote call in the operation exhausted its retries.
	tnow   uint64
	failed bool

	// rec is the worker's reusable recorder: the engine consumes each op
	// fully before asking for the next, so one recorder (and one Items
	// backing array) serves every BBop of the thread.
	rec *trace.Recorder
}

// Source returns the OpSource for worker i.
func (w *Workload) Source(i int) osmodel.OpSource {
	rng := w.rng.Derive(uint64(i))
	return &workerSource{
		w:        w,
		rng:      rng,
		custZipf: w.custZipf.With(rng),
		itemZipf: w.itemZipf.With(rng),
		ordZipf:  w.ordZipf.With(rng),
		corpZipf: w.corpZipf.With(rng),
		rec:      trace.NewRecorder(""),
	}
}

// NextOp records one BBop from the ECperf mix.
func (s *workerSource) NextOp(tid int, now uint64) *trace.Op {
	s.tnow = now
	s.failed = false
	// Admission control sheds at the door: the request is answered with a
	// cheap rejection before any business logic or remote call runs.
	if !s.w.caller.Admit(now) {
		return s.shedOp(now)
	}
	u := s.rng.Float64()
	var op *trace.Op
	switch {
	case u < 0.30:
		op = s.newOrder(tid, now)
	case u < 0.45:
		op = s.changeOrder(tid, now)
	case u < 0.60:
		op = s.orderStatus(tid, now)
	case u < 0.70:
		op = s.customerStatus(tid, now)
	case u < 0.90:
		op = s.workOrder(tid, now)
	default:
		op = s.purchase(tid, now)
	}
	// The request's frame is gone: unpin its temporaries.
	s.w.heap.ClearStack(tid)
	return op
}

// shedOp records the cheap-rejection path of a shed request: kernel
// receive, a short error response, no business logic. Not a business op.
func (s *workerSource) shedOp(now uint64) *trace.Op {
	w := s.w
	rec := s.rec
	rec.Reset("shed", false)
	w.ns.ReceiveRequest(rec, 512)
	rec.Instr(w.comps.Server.ID, servletInstr/6)
	w.ns.SendResponse(rec, 256)
	w.ShedOps++
	w.BBops["shed"]++
	return rec.Handoff()
}

// call routes one remote round trip through the resilient caller when
// resilience is enabled (plain network call otherwise). On failure it
// marks the operation failed and reports false.
func (s *workerSource) call(rec *trace.Recorder, peer uint8, reqBytes, respBytes uint32) bool {
	w := s.w
	if w.caller == nil {
		w.ns.Call(rec, peer, reqBytes, respBytes)
		return true
	}
	ok, delay := w.caller.Call(rec, w.ns, peer, reqBytes, respBytes, s.tnow)
	s.tnow += delay
	if !ok {
		s.failed = true
	}
	return ok
}

// read guards an object read against the nil object a failed entity load
// returns.
func (s *workerSource) read(rec *trace.Recorder, obj jvm.ObjectID) {
	if obj != jvm.NilObject {
		s.w.heap.ReadObject(rec, obj)
	}
}

// finish closes an operation: a failed one is demoted from the throughput
// count and re-tagged "<tag>.fail" so its (shorter) latency reports
// separately.
func (s *workerSource) finish(rec *trace.Recorder, tag string) *trace.Op {
	w := s.w
	if s.failed {
		rec.Demote()
		rec.SetTag(tag + ".fail")
		w.FailedOps++
		w.BBops[tag+".fail"]++
	} else {
		w.BBops[tag]++
	}
	return rec.Handoff()
}

// entity resolves one entity bean: object-cache hit, or a database load
// through the connection pool. The hit path is dramatically shorter —
// §4.4's constructive interference.
func (s *workerSource) entity(rec *trace.Recorder, tid int, dom uint64, key int, now uint64) jvm.ObjectID {
	w := s.w
	k := dom<<32 | uint64(key)
	if obj, ok := w.cache.Get(rec, k, now); ok {
		rec.Instr(w.comps.EJB.ID, perEntityInstr/8)
		s.metaWalk(rec, 4) // descriptor + interceptor lookups
		return obj
	}
	s.metaWalk(rec, 16) // ORM mapping metadata for the load path
	conn := w.pool.Acquire(rec)
	ok := s.call(rec, netsim.PeerDatabase, queryReqBytes, queryRespBytes)
	w.pool.Release(rec, conn)
	w.DBCalls++
	if !ok {
		// Load failed: nothing to hydrate or cache; the operation takes
		// its error path with a nil entity.
		return jvm.NilObject
	}
	w.heap.SetAllocSite(tid, "ec.bean")
	obj := w.heap.Alloc(rec, tid, beanBytes, 0)
	w.heap.SetAllocSite(tid, "")
	rec.Instr(w.comps.EJB.ID, perEntityInstr) // ORM hydration
	w.cache.Put(rec, k, obj, now)
	return obj
}

// commit writes a transaction back to the database.
func (s *workerSource) commit(rec *trace.Recorder, tid int) {
	w := s.w
	conn := w.pool.Acquire(rec)
	ok := s.call(rec, netsim.PeerDatabase, updateReqBytes, updateRespBytes)
	w.pool.Release(rec, conn)
	w.DBCalls++
	if ok {
		rec.Instr(w.comps.Server.ID, commitInstr)
	}
}

// metaWalk records n reads over the server's runtime metadata with a
// skewed (hot-table) distribution: hash buckets, descriptors, interceptor
// chains. These walks are what give the middle tier its L1-data miss rate.
func (s *workerSource) metaWalk(rec *trace.Recorder, n int) {
	h := s.w.heap
	base := h.Addr(s.w.meta)
	lines := int64(metaBytes / 64)
	for i := 0; i < n; i++ {
		off := s.rng.Int63n(lines)
		if s.rng.Bool(0.62) {
			off %= lines / 12 // hot slice of the tables
		}
		rec.Read(base+uint64(off)*64, 8)
	}
}

// begin records the common request front half: kernel receive, dispatch,
// servlet presentation layer with its session garbage.
func (s *workerSource) begin(rec *trace.Recorder, tid int) {
	w := s.w
	w.ns.ReceiveRequest(rec, 512)
	w.disp.Dispatch(rec)
	rec.Instr(w.comps.Server.ID, servletInstr/3)
	s.metaWalk(rec, metaReads)
	rec.Instr(w.comps.Servlet.ID, servletInstr)
	s.metaWalk(rec, metaReads/2)
	// Session/request temporaries.
	w.heap.SetAllocSite(tid, "ec.session")
	n := sessionBytes
	for n > 0 {
		sz := uint32(96 + s.rng.Intn(160))
		if sz > n {
			sz = n
		}
		w.heap.Alloc(rec, tid, sz, 0)
		n -= sz
	}
	w.heap.SetAllocSite(tid, "")
	rec.Instr(w.comps.JVM.ID, sessionBytes/8)
}

// end records the response half.
func (s *workerSource) end(rec *trace.Recorder) {
	w := s.w
	rec.Instr(w.comps.Servlet.ID, servletInstr/2)
	s.metaWalk(rec, metaReads/2)
	w.ns.SendResponse(rec, 1024)
}

func (s *workerSource) newOrder(tid int, now uint64) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("neworder", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr)

	cust := s.entity(rec, tid, domCustomer, s.custZipf.Next(), now)
	s.read(rec, cust)
	nitems := 2 + s.rng.Intn(4)
	for i := 0; i < nitems; i++ {
		item := s.entity(rec, tid, domItem, s.itemZipf.Next(), now)
		s.read(rec, item)
		rec.Instr(w.comps.EJB.ID, perEntityInstr/4)
	}
	if !s.failed {
		// The new order bean: written through to the database; the local
		// copy enters the cache.
		h.SetAllocSite(tid, "ec.order")
		order := h.Alloc(rec, tid, beanBytes, 0)
		h.SetAllocSite(tid, "")
		h.WriteField(rec, order, 1)
		w.cache.Put(rec, domOrder<<32|uint64(s.ordZipf.Next()), order, now)
		s.commit(rec, tid)
	}

	s.end(rec)
	return s.finish(rec, "neworder")
}

func (s *workerSource) changeOrder(tid int, now uint64) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("changeorder", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr)
	order := s.entity(rec, tid, domOrder, s.ordZipf.Next(), now)
	s.read(rec, order)
	if order != jvm.NilObject {
		h.WriteField(rec, order, 2)
	}
	cust := s.entity(rec, tid, domCustomer, s.custZipf.Next(), now)
	s.read(rec, cust)
	if !s.failed {
		s.commit(rec, tid)
	}
	s.end(rec)
	return s.finish(rec, "changeorder")
}

func (s *workerSource) orderStatus(tid int, now uint64) *trace.Op {
	w := s.w
	rec := s.rec
	rec.Reset("orderstatus", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr/2)
	order := s.entity(rec, tid, domOrder, s.ordZipf.Next(), now)
	s.read(rec, order)
	corp := s.entity(rec, tid, domCorporate, s.corpZipf.Next(), now)
	s.read(rec, corp)
	s.end(rec)
	return s.finish(rec, "orderstatus")
}

func (s *workerSource) customerStatus(tid int, now uint64) *trace.Op {
	w := s.w
	rec := s.rec
	rec.Reset("custstatus", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr/2)
	cust := s.entity(rec, tid, domCustomer, s.custZipf.Next(), now)
	s.read(rec, cust)
	norders := 1 + s.rng.Intn(3)
	for i := 0; i < norders; i++ {
		order := s.entity(rec, tid, domOrder, s.ordZipf.Next(), now)
		s.read(rec, order)
	}
	s.end(rec)
	return s.finish(rec, "custstatus")
}

// workOrder runs one step of the Just-In-Time manufacturing cycle: create
// a work order (live in the middle tier while open), consume parts, and
// complete the oldest open work order.
func (s *workerSource) workOrder(tid int, now uint64) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("workorder", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr)

	h.SetAllocSite(tid, "ec.workorder")
	wo := h.Alloc(rec, tid, workOrderBytes, 0)
	h.SetAllocSite(tid, "")
	h.AddRoot(wo)
	// Bill of materials.
	for i := 0; i < 3; i++ {
		item := s.entity(rec, tid, domItem, s.itemZipf.Next(), now)
		s.read(rec, item)
	}
	s.commit(rec, tid)

	if s.failed {
		// The work order never entered the schedule: roll it back rather
		// than leaving a phantom in the in-flight ring.
		h.RemoveRoot(wo)
		s.end(rec)
		return s.finish(rec, "workorder")
	}

	// Ring of open work orders: completing the oldest when full keeps the
	// in-flight population at inflightMax — the Figure 11 plateau.
	if len(w.inflight) < w.inflightMax {
		w.inflight = append(w.inflight, wo)
	} else {
		old := w.inflight[w.inflightHead]
		h.WriteField(rec, old, 1) // mark completed
		h.RemoveRoot(old)         // becomes garbage
		w.inflight[w.inflightHead] = wo
		w.inflightHead = (w.inflightHead + 1) % w.inflightMax
		s.commit(rec, tid)
	}

	s.end(rec)
	return s.finish(rec, "workorder")
}

// purchase sends a purchase order to the supplier emulator as an XML
// document and processes the XML response.
func (s *workerSource) purchase(tid int, now uint64) *trace.Op {
	w, h := s.w, s.w.heap
	rec := s.rec
	rec.Reset("purchase", true)
	s.begin(rec, tid)
	rec.Instr(w.comps.EJB.ID, beanInstr/2)

	for i := 0; i < 2; i++ {
		item := s.entity(rec, tid, domItem, s.itemZipf.Next(), now)
		s.read(rec, item)
	}
	// Format the XML document (allocation-heavy), send it, parse the reply.
	h.SetAllocSite(tid, "ec.xml")
	doc := h.Alloc(rec, tid, xmlBytes, 0)
	h.SetAllocSite(tid, "")
	h.ReadObject(rec, doc)
	rec.Instr(w.comps.Servlet.ID, xmlInstr)
	if s.call(rec, netsim.PeerSupplier, xmlBytes, xmlBytes/2) {
		h.SetAllocSite(tid, "ec.xml")
		reply := h.Alloc(rec, tid, xmlBytes/2, 0)
		h.SetAllocSite(tid, "")
		h.ReadObject(rec, reply)
		rec.Instr(w.comps.Servlet.ID, xmlInstr/2)
		s.commit(rec, tid)
	}

	s.end(rec)
	return s.finish(rec, "purchase")
}
