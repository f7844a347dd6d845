// Package dbserver models the ECperf database machine as a real simulated
// system rather than a queueing abstraction — the paper simulated all four
// machines of the deployment in Simics and filtered the application
// server's references (§3.3); this workload is what runs on the database
// machine when the reproduction does the same (internal/cluster).
//
// The model is a buffer-pool-resident DBMS, per the paper's observation
// that "ECperf uses a small database, which fit entirely in the buffer
// pool" (§3.2): worker threads take requests from a network queue, walk a
// B-tree index and read the row pages — all real heap memory on this
// machine — apply updates with log appends, and send the reply back over
// the wire.
package dbserver

import (
	"sort"

	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/netsim"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// An ECperf-scale cached database.
const (
	// tables and rowsPerTable size the buffer-pool-resident data.
	tables              = 8
	rowsPerTable        = 2000
	rowBytes     uint32 = 192
	// indexBytes is each table's B-tree index size; indexDepth the lines
	// read per key lookup.
	indexBytes uint32 = 64 << 10
	indexDepth        = 4
	// parseInstr is the per-query SQL parse/plan cost; perRowInstr the
	// per-row execution cost; rowsPerQuery how many rows a query touches.
	parseInstr   uint32 = 6_000
	perRowInstr  uint32 = 1_200
	rowsPerQuery        = 3
	// updateFrac is the fraction of requests that write (and log).
	updateFrac float64 = 0.35
	logBytes   uint32  = 256
	// pollCycles is the worker's idle-poll interval when no request is
	// queued.
	pollCycles uint32 = 4_000
)

// Components are the DBMS's code components.
type Components struct {
	SQL *ifetch.Component // parser, planner, executor
}

// Request is one query delivered from the application server.
type Request struct {
	// SourceThread is the requester's thread ID on the other machine.
	SourceThread int
	ReqBytes     uint32
	RespBytes    uint32
	// DeliverAt is when the request reaches this machine (issue + wire).
	DeliverAt uint64
}

// table is the Go-side index of one table's in-heap storage.
type table struct {
	index jvm.ObjectID // B-tree node storage (large, old-gen)
	rows  []jvm.ObjectID
}

// Server is the database machine's workload.
type Server struct {
	comps  Components
	heap   *jvm.Heap
	ns     *netsim.NetStack
	rng    *simrand.Rand
	tables []*table

	// queue is the pending-request list, kept ordered by delivery time.
	// Enqueue order is engine order, which within a lockstep window is NOT
	// time order (processors simulate slices independently), so Enqueue
	// inserts in place — otherwise an undue head would block due requests
	// behind it.
	queue []Request
	// inflight maps a worker's recorded op to the request it answers, so
	// the coordinator can route the reply on op completion.
	inflight map[*trace.Op]Request

	Served uint64
}

// New builds the buffer-pool-resident tables.
func New(heap *jvm.Heap, comps Components, ns *netsim.NetStack, rng *simrand.Rand) *Server {
	rec := trace.NewRecorder("db-build")
	s := &Server{
		comps: comps, heap: heap, ns: ns, rng: rng,
		inflight: make(map[*trace.Op]Request),
	}
	for t := 0; t < tables; t++ {
		tb := &table{index: heap.Alloc(rec, t, indexBytes, 0)}
		heap.AddRoot(tb.index)
		for r := 0; r < rowsPerTable; r++ {
			row := heap.Alloc(rec, t, rowBytes, 0)
			heap.AddRoot(row)
			tb.rows = append(tb.rows, row)
		}
		heap.ClearStack(t)
		s.tables = append(s.tables, tb)
		rec.Reset("db-build", false) // construction traffic is discarded
	}
	heap.MinorGC(nil)
	heap.MinorGC(nil)
	return s
}

// Enqueue delivers a request (called by the cluster coordinator),
// keeping the queue ordered by delivery time.
func (s *Server) Enqueue(r Request) {
	i := sort.Search(len(s.queue), func(i int) bool {
		return s.queue[i].DeliverAt > r.DeliverAt
	})
	s.queue = append(s.queue, Request{})
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = r
}

// QueueDepth returns the number of waiting requests.
func (s *Server) QueueDepth() int { return len(s.queue) }

// InService returns the number of requests claimed by worker threads but
// not yet answered. QueueDepth() + InService() is every request the server
// has accepted and not replied to — the ground truth a coordinator's
// in-flight accounting must match.
func (s *Server) InService() int { return len(s.inflight) }

// TakeRequest claims the request answered by a completed op, if any.
func (s *Server) TakeRequest(op *trace.Op) (Request, bool) {
	r, ok := s.inflight[op]
	if ok {
		delete(s.inflight, op)
	}
	return r, ok
}

// workerSource is one DBMS worker thread.
type workerSource struct {
	s   *Server
	rng *simrand.Rand
	// rec is the worker's reusable recorder. The coordinator always takes
	// a completed query out of the inflight map (OnOpComplete runs before
	// the worker's next NextOp), so reusing the op is safe even though the
	// map is keyed by its pointer.
	rec *trace.Recorder
}

// WorkerSource returns the OpSource for worker i.
func (s *Server) WorkerSource(i int) osmodel.OpSource {
	return &workerSource{s: s, rng: s.rng.Derive(uint64(i)), rec: trace.NewRecorder("")}
}

// NextOp processes the next delivered request, or polls when none is due.
func (w *workerSource) NextOp(tid int, now uint64) *trace.Op {
	s := w.s
	if len(s.queue) == 0 || s.queue[0].DeliverAt > now {
		// Idle poll: a short sleep, as a blocked accept loop would.
		rec := w.rec
		rec.Reset("db-poll", false)
		rec.Think(pollCycles)
		return rec.Handoff()
	}
	req := s.queue[0]
	s.queue = s.queue[1:]

	rec := w.rec
	rec.Reset("query", true)
	s.ns.ReceiveRequest(rec, req.ReqBytes)
	rec.Instr(s.comps.SQL.ID, parseInstr)

	tb := s.tables[w.rng.Intn(len(s.tables))]
	update := w.rng.Bool(updateFrac)
	for r := 0; r < rowsPerQuery; r++ {
		// Index walk, then the row itself.
		base := s.heap.Addr(tb.index)
		lines := int64(indexBytes / 64)
		for d := 0; d < indexDepth; d++ {
			rec.Read(base+uint64(w.rng.Int63n(lines))*64, 8)
		}
		row := tb.rows[w.rng.Intn(len(tb.rows))]
		s.heap.ReadObject(rec, row)
		if update {
			s.heap.WriteField(rec, row, 1)
		}
		rec.Instr(s.comps.SQL.ID, perRowInstr)
	}
	if update {
		// Log append (sequential writes, short-lived buffer).
		s.heap.Alloc(rec, tid, logBytes, 0)
		rec.Instr(s.comps.SQL.ID, perRowInstr/2)
	}
	s.ns.SendResponse(rec, req.RespBytes)
	s.heap.ClearStack(tid)

	op := rec.Handoff()
	s.inflight[op] = req
	s.Served++
	return op
}
