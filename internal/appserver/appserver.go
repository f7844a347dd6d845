// Package appserver models the commercial Java application server the
// paper ran ECperf on (unnamed there for licensing reasons). It provides
// the three performance features the paper calls out in §2.5 — thread
// pooling, database connection pooling, and object-level caching — as
// functional-layer constructs that record real memory behavior into
// operation traces:
//
//   - The object-level cache keeps entity beans (heap objects) alive and
//     shared between worker threads. A hit saves a database round trip and
//     its path length, which is the paper's explanation (§4.4) for ECperf's
//     super-linear scaling: "constructive interference in the object cache
//     allows one thread to re-use objects fetched by another thread."
//     Entries expire after a TTL (transaction-option caching), so the hit
//     rate genuinely rises with aggregate throughput.
//   - The connection pool is a fixed set of connection monitors; when all
//     are held, threads block — the shared-resource contention the paper
//     blames for idle time growth (§4.1).
//   - The dispatch queue is one hot monitor every request crosses.
package appserver

import (
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// The object-level (entity bean) cache's size.
const (
	// cacheEntries is the cache capacity in beans.
	cacheEntries = 8192
	// cacheTTLCycles is how long a cached bean stays valid.
	// Transaction-option caching requires revalidation; the TTL is its time
	// constant.
	cacheTTLCycles uint64 = 1_500_000
)

// cacheEntry is the Go-side index of one cached bean.
type cacheEntry struct {
	key        uint64
	obj        jvm.ObjectID
	loadedAt   uint64
	prev, next *cacheEntry // LRU list
}

// ObjectCache is the shared entity-bean cache. All methods record the
// memory behavior of the lookup (lock, hash-slot probe, bean access) into
// the caller's recorder.
type ObjectCache struct {
	heap    *jvm.Heap
	mon     *jvm.Monitor
	table   jvm.ObjectID // permanent hash-table object (slot array)
	slots   int
	index   map[uint64]*cacheEntry
	lruHead *cacheEntry // most recent
	lruTail *cacheEntry // least recent

	Hits, Misses uint64
}

// NewObjectCache builds the cache, allocating its table and monitor in the
// heap's permanent region.
func NewObjectCache(heap *jvm.Heap, rec *trace.Recorder) *ObjectCache {
	slots := 1
	for slots < cacheEntries*2 {
		slots <<= 1
	}
	return &ObjectCache{
		heap:  heap,
		mon:   heap.NewSpinMonitor(rec), // briefly held, very hot
		table: heap.AllocPermanent(rec, uint32(8*slots+jvm.HeaderBytes)),
		slots: slots,
		index: make(map[uint64]*cacheEntry),
	}
}

func (c *ObjectCache) slotAddr(key uint64) mem.Addr {
	slot := simrand.Mix64(key) & uint64(c.slots-1)
	return c.heap.Addr(c.table) + jvm.HeaderBytes + mem.Addr(slot*8)
}

// lruUnlink removes e from the LRU list.
func (c *ObjectCache) lruUnlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruPush makes e most recently used.
func (c *ObjectCache) lruPush(e *cacheEntry) {
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

// Get looks up a bean under the cache lock. On a hit it records the bean
// read and returns (bean, true); on a miss or expiry it returns (_, false)
// and the caller is expected to load the bean and Put it.
func (c *ObjectCache) Get(rec *trace.Recorder, key uint64, now uint64) (jvm.ObjectID, bool) {
	c.mon.Lock(rec)
	rec.Read(c.slotAddr(key), 8)
	e, ok := c.index[key]
	if ok && now-e.loadedAt <= cacheTTLCycles {
		c.lruUnlink(e)
		c.lruPush(e)
		c.Hits++
		obj := e.obj
		c.mon.Unlock(rec)
		c.heap.ReadObject(rec, obj)
		return obj, true
	}
	if ok {
		// Present but stale: drop it; the caller reloads.
		c.removeLocked(e)
	}
	c.Misses++
	c.mon.Unlock(rec)
	return jvm.NilObject, false
}

// Put inserts a freshly loaded bean, evicting the LRU entry if full. The
// bean is rooted while cached (the container holds it).
func (c *ObjectCache) Put(rec *trace.Recorder, key uint64, obj jvm.ObjectID, now uint64) {
	c.mon.Lock(rec)
	if e, ok := c.index[key]; ok {
		c.removeLocked(e)
	}
	if len(c.index) >= cacheEntries {
		c.removeLocked(c.lruTail)
	}
	e := &cacheEntry{key: key, obj: obj, loadedAt: now}
	c.index[key] = e
	c.lruPush(e)
	c.heap.AddRoot(obj)
	rec.Write(c.slotAddr(key), 8)
	c.mon.Unlock(rec)
}

// removeLocked drops an entry and unroots its bean (it becomes garbage
// unless the workload still references it).
func (c *ObjectCache) removeLocked(e *cacheEntry) {
	delete(c.index, e.key)
	c.lruUnlink(e)
	c.heap.RemoveRoot(e.obj)
}

// Len returns the number of cached beans.
func (c *ObjectCache) Len() int { return len(c.index) }

// HitRatio returns hits/(hits+misses), or 0 when unused.
func (c *ObjectCache) HitRatio() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// ConnPool is the fixed database connection pool: a counting semaphore
// (the timing layer blocks threads while all connections are checked out)
// plus one shared bookkeeping line every checkout updates — the free-list
// head a real pool would CAS.
type ConnPool struct {
	semID    uint64
	capacity int
	book     mem.Addr
}

// connPoolSemBase namespaces pool semaphore IDs.
const connPoolSemBase = 1 << 40

// NewConnPool builds a pool of n connections.
func NewConnPool(heap *jvm.Heap, rec *trace.Recorder, n int) *ConnPool {
	if n <= 0 {
		panic("appserver: connection pool needs at least one connection")
	}
	book := heap.AllocPermanent(rec, mem.LineBytes)
	// The bookkeeping line's address doubles as the semaphore identity: it is
	// unique within the system and derived only from simulated state, so two
	// runs at the same seed name their semaphores identically. (A process-wide
	// counter here would leak run ordering into trace events.)
	return &ConnPool{
		semID:    connPoolSemBase + uint64(heap.Addr(book)),
		capacity: n,
		book:     heap.Addr(book),
	}
}

// Acquire records checking out a connection; the return value feeds the
// matching Release.
func (p *ConnPool) Acquire(rec *trace.Recorder) int {
	rec.SemAcquire(p.semID, uint32(p.capacity))
	rec.Write(p.book, 8)
	return 0
}

// Release records returning a connection.
func (p *ConnPool) Release(rec *trace.Recorder, i int) {
	rec.Write(p.book, 8)
	rec.SemRelease(p.semID)
}

// Dispatcher is the request dispatch queue: one monitor every request
// crosses briefly, plus a queue-depth field the dispatcher updates.
type Dispatcher struct {
	mon   *jvm.Monitor
	state jvm.ObjectID
	heap  *jvm.Heap
}

// NewDispatcher allocates the dispatch monitor and its state object.
func NewDispatcher(heap *jvm.Heap, rec *trace.Recorder) *Dispatcher {
	return &Dispatcher{
		mon:   heap.NewSpinMonitor(rec), // briefly held, very hot
		state: heap.AllocPermanent(rec, 64),
		heap:  heap,
	}
}

// Dispatch records one pass through the queue lock.
func (d *Dispatcher) Dispatch(rec *trace.Recorder) {
	d.mon.Lock(rec)
	d.heap.ReadField(rec, d.state, 0)
	d.heap.WriteField(rec, d.state, 0)
	d.mon.Unlock(rec)
}
