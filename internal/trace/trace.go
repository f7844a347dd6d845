// Package trace defines the annotated operation traces that connect the
// simulator's two layers.
//
// The functional layer (workload code running against the simulated JVM
// heap) *records* each operation — a SPECjbb transaction or an ECperf BBop —
// as a sequence of items: instruction segments tagged with their code
// component, data references at real heap addresses, lock acquire/release
// points, network round trips, and stop-the-world GC pauses. The timing
// layer (internal/osmodel) then *plays back* the items over simulated time
// on a processor, charging cycles through the cache hierarchy and blocking
// the thread at lock, I/O, and GC points.
//
// This mirrors the paper's methodology: behavior is captured once
// (natively / functionally) and analyzed through a configurable memory
// system simulator.
package trace

import "repro/internal/mem"

// Kind discriminates trace items.
type Kind uint8

const (
	// KindInstr is a segment of N instructions from code component Comp,
	// executed in user or kernel mode depending on the component.
	KindInstr Kind = iota
	// KindRead is a data load of Size bytes at Addr.
	KindRead
	// KindWrite is a data store of Size bytes at Addr.
	KindWrite
	// KindLockAcq acquires the monitor identified by ID whose lock word
	// lives at Addr. The playback engine may block the thread here.
	KindLockAcq
	// KindLockRel releases the monitor identified by ID at Addr.
	KindLockRel
	// KindNetCall is a synchronous network round trip to machine Peer
	// (request Size bytes, response Aux bytes). The thread blocks until
	// the simulated peer responds; the surrounding kernel-mode instruction
	// segments are recorded separately by the netsim layer.
	KindNetCall
	// KindThink is a pure delay of N cycles (driver pacing / think time).
	KindThink
	// KindGCPause is a stop-the-world garbage collection triggered at this
	// point of the operation. GC carries the collector's own recorded
	// work, which the engine plays on a single processor while all other
	// processors in the set sit idle.
	KindGCPause
	// KindSemAcq acquires one unit of the counting semaphore ID with
	// capacity Aux (resource pools: database connections). The thread
	// blocks while the pool is exhausted.
	KindSemAcq
	// KindSemRel returns one unit of semaphore ID.
	KindSemRel
)

// Item is one step of a recorded operation. Fields are overloaded by Kind to
// keep the struct small; use the Recorder to construct items and the
// accessors' documentation above for meaning.
type Item struct {
	Kind Kind
	Comp mem.ComponentID // KindInstr: code component
	Peer uint8           // KindNetCall: destination machine index
	N    uint32          // KindInstr: count; KindThink: cycles; KindRead/Write: size
	Aux  uint32          // KindNetCall: response bytes
	Addr mem.Addr        // KindRead/Write: address; KindLockAcq/Rel: lock word
	ID   uint64          // KindLockAcq/Rel: lock ID; KindNetCall: request size
	GC   *GC             // KindGCPause only
}

// GC is a recorded stop-the-world collection: the collector's own memory
// behavior plus summary figures used by the memory-scaling experiments.
type GC struct {
	Items      []Item // collector's trace (instruction segments + copy refs)
	Major      bool   // true for old-generation mark-compact collections
	LiveBytes  uint64 // live heap bytes immediately after this collection
	CopiedObjs uint64 // objects copied (minor) or relocated (major)
	FreedBytes uint64 // bytes reclaimed
}

// Op is one recorded operation of one thread.
type Op struct {
	Items []Item
	// Business marks operations counted toward throughput (SPECjbb
	// transactions, ECperf BBops); bookkeeping operations are not counted.
	Business bool
	// Tag names the operation type for per-type statistics.
	Tag string
}

// Instructions returns the total instruction count in the op, including
// instructions inside any embedded GC pauses.
func (o *Op) Instructions() uint64 {
	var n uint64
	for i := range o.Items {
		it := &o.Items[i]
		switch it.Kind {
		case KindInstr:
			n += uint64(it.N)
		case KindGCPause:
			if it.GC != nil {
				for j := range it.GC.Items {
					if it.GC.Items[j].Kind == KindInstr {
						n += uint64(it.GC.Items[j].N)
					}
				}
			}
		}
	}
	return n
}

// Recorder builds an Op. Workload code drives it during functional
// execution; it coalesces adjacent instruction segments of the same
// component so that hot paths do not bloat the trace.
type Recorder struct {
	op Op
}

// NewRecorder returns a recorder for one operation that does not count
// toward throughput; Reset re-arms it for a business operation.
func NewRecorder(tag string) *Recorder {
	return &Recorder{op: Op{Tag: tag}}
}

// NewRecorderCap is NewRecorder with room for n items before the trace
// regrows: the collector sizes each collection's trace by the last one's.
func NewRecorderCap(tag string, n int) *Recorder {
	return &Recorder{op: Op{Tag: tag, Items: make([]Item, 0, n)}}
}

// Instr records n instructions of component comp. Zero counts are dropped.
func (r *Recorder) Instr(comp mem.ComponentID, n uint32) {
	if n == 0 {
		return
	}
	items := r.op.Items
	if len(items) > 0 {
		last := &items[len(items)-1]
		if last.Kind == KindInstr && last.Comp == comp {
			// Coalesce, saturating well below uint32 overflow.
			if uint64(last.N)+uint64(n) < 1<<31 {
				last.N += n
				return
			}
		}
	}
	r.op.Items = append(r.op.Items, Item{Kind: KindInstr, Comp: comp, N: n})
}

// Read records a data load of size bytes at addr.
func (r *Recorder) Read(addr mem.Addr, size uint32) {
	r.op.Items = append(r.op.Items, Item{Kind: KindRead, Addr: addr, N: size})
}

// Write records a data store of size bytes at addr.
func (r *Recorder) Write(addr mem.Addr, size uint32) {
	r.op.Items = append(r.op.Items, Item{Kind: KindWrite, Addr: addr, N: size})
}

// LockAcquire records a monitor acquisition (lock word at addr).
func (r *Recorder) LockAcquire(id uint64, addr mem.Addr) {
	r.op.Items = append(r.op.Items, Item{Kind: KindLockAcq, ID: id, Addr: addr})
}

// LockAcquireSpin records acquisition of an adaptive (spin-then-block)
// lock, the kind kernels use in the network stack. Contention on a spin
// lock burns busy cycles in the owner's mode instead of blocking
// immediately — the mechanism behind ECperf's growing system time
// (Figure 5). Aux=1 marks the spin variant for the playback engine.
func (r *Recorder) LockAcquireSpin(id uint64, addr mem.Addr) {
	r.op.Items = append(r.op.Items, Item{Kind: KindLockAcq, ID: id, Addr: addr, Aux: 1})
}

// LockRelease records a monitor release.
func (r *Recorder) LockRelease(id uint64, addr mem.Addr) {
	r.op.Items = append(r.op.Items, Item{Kind: KindLockRel, ID: id, Addr: addr})
}

// NetCall records a synchronous round trip to machine peer.
func (r *Recorder) NetCall(peer uint8, reqBytes, respBytes uint32) {
	r.op.Items = append(r.op.Items, Item{Kind: KindNetCall, Peer: peer, ID: uint64(reqBytes), Aux: respBytes})
}

// Think records a pure delay of the given cycles.
func (r *Recorder) Think(cycles uint32) {
	if cycles == 0 {
		return
	}
	r.op.Items = append(r.op.Items, Item{Kind: KindThink, N: cycles})
}

// GCPause records a stop-the-world collection at this point.
func (r *Recorder) GCPause(gc *GC) {
	r.op.Items = append(r.op.Items, Item{Kind: KindGCPause, GC: gc})
}

// SemAcquire records taking one unit of a counting semaphore (a resource
// pool of the given capacity).
func (r *Recorder) SemAcquire(id uint64, capacity uint32) {
	r.op.Items = append(r.op.Items, Item{Kind: KindSemAcq, ID: id, Aux: capacity})
}

// SemRelease records returning one unit of the semaphore.
func (r *Recorder) SemRelease(id uint64) {
	r.op.Items = append(r.op.Items, Item{Kind: KindSemRel, ID: id})
}

// Demote stops the operation counting toward throughput — the resilience
// layer demotes an operation that exhausted its retries or was shed at
// admission, after recording has already begun.
func (r *Recorder) Demote() { r.op.Business = false }

// SetTag renames the operation mid-recording (e.g. appending ".fail" so
// failed operations report their own latency distribution).
func (r *Recorder) SetTag(tag string) { r.op.Tag = tag }

// Finish returns the completed operation. The recorder must not be used
// afterwards.
func (r *Recorder) Finish() *Op {
	op := r.op
	r.op = Op{}
	return &op
}

// Reset re-arms the recorder for the next operation, reusing the Items
// backing array of the previous one. Pair it with Handoff on a long-lived
// per-thread recorder: together they record millions of operations without
// regrowing a fresh Items array for each.
func (r *Recorder) Reset(tag string, business bool) {
	r.op.Items = r.op.Items[:0]
	r.op.Tag = tag
	r.op.Business = business
}

// Handoff returns the recorded operation without detaching it from the
// recorder: the next Reset reuses the same Op and its Items storage.
// The caller must not touch the op again after Reset — the playback
// engine's OpSource contract (at most one op in flight per thread, NextOp
// called only after the previous op completes) guarantees exactly that
// window.
func (r *Recorder) Handoff() *Op {
	return &r.op
}
