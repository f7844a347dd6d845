package appserver

import (
	"testing"

	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/trace"
)

func setup(t *testing.T) (*jvm.Heap, *trace.Recorder) {
	t.Helper()
	cfg := jvm.DefaultConfig()
	cfg.HeapBytes = 8 << 20
	cfg.NewGenBytes = 2 << 20
	h, err := jvm.NewHeap(mem.NewAddrSpace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, trace.NewRecorder("setup")
}

func TestCacheMissThenHit(t *testing.T) {
	h, rec := setup(t)
	c := NewObjectCache(h, rec)
	if _, ok := c.Get(rec, 5, 0); ok {
		t.Fatal("empty cache hit")
	}
	bean := h.Alloc(rec, 0, 128, 0)
	c.Put(rec, 5, bean, 0)
	got, ok := c.Get(rec, 5, 500)
	if !ok || got != bean {
		t.Fatal("fresh entry missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	h, rec := setup(t)
	c := NewObjectCache(h, rec)
	bean := h.Alloc(rec, 0, 128, 0)
	c.Put(rec, 5, bean, 0)
	if _, ok := c.Get(rec, 5, cacheTTLCycles+1); ok {
		t.Fatal("stale entry hit")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want the stale lookup to miss", c.Hits, c.Misses)
	}
	if c.Len() != 0 {
		t.Fatal("stale entry not dropped")
	}
}

// TestHitRateRisesWithRequestRate is the §4.4 mechanism: the same key
// stream, issued at a higher rate relative to the TTL, hits more. This is
// what makes instructions-per-BBop fall as ECperf scales up.
func TestHitRateRisesWithRequestRate(t *testing.T) {
	run := func(gapCycles uint64) float64 {
		h, rec := setup(t)
		c := NewObjectCache(h, rec)
		now := uint64(0)
		for i := 0; i < 500; i++ {
			key := uint64(i % 16)
			if _, ok := c.Get(rec, key, now); !ok {
				bean := h.Alloc(rec, 0, 128, 0)
				c.Put(rec, key, bean, now)
			}
			now += gapCycles
		}
		return c.HitRatio()
	}
	slow := run(cacheTTLCycles / 2)  // low throughput: mostly expired
	fast := run(cacheTTLCycles / 50) // high throughput: mostly fresh
	if fast <= slow+0.2 {
		t.Fatalf("hit rate did not rise with rate: slow=%v fast=%v", slow, fast)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	h, rec := setup(t)
	c := NewObjectCache(h, rec)
	b := func() jvm.ObjectID { return h.Alloc(rec, 0, 64, 0) }
	for k := uint64(1); k <= cacheEntries; k++ {
		c.Put(rec, k, b(), 0)
	}
	c.Get(rec, 1, 1)                   // 1 is now MRU, 2 the LRU
	c.Put(rec, cacheEntries+1, b(), 2) // evicts 2
	if _, ok := c.Get(rec, 2, 3); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := c.Get(rec, 1, 3); !ok {
		t.Fatal("MRU entry evicted")
	}
	if c.Len() != cacheEntries {
		t.Fatalf("len = %d, want %d after one eviction", c.Len(), cacheEntries)
	}
}

func TestCachedBeansSurviveGC(t *testing.T) {
	h, rec := setup(t)
	c := NewObjectCache(h, rec)
	bean := h.Alloc(rec, 0, 128, 0)
	c.Put(rec, 7, bean, 0)
	h.MinorGC(rec)
	if !h.IsLive(bean) {
		t.Fatal("cached bean collected: cache must root its entries")
	}
	got, ok := c.Get(rec, 7, 10)
	if !ok || got != bean {
		t.Fatal("bean lost after GC")
	}
	// Evicted beans become garbage.
	c2 := NewObjectCache(h, rec)
	a := h.Alloc(rec, 0, 128, 0)
	c2.Put(rec, 1, a, 0)
	for k := uint64(2); k <= cacheEntries+1; k++ {
		c2.Put(rec, k, h.Alloc(rec, 0, 64, 0), 1) // the last evicts a
	}
	h.ClearStack(0)
	h.MinorGC(rec)
	if h.IsLive(a) {
		t.Fatal("evicted bean still rooted")
	}
}

func TestCacheRecordsLockTraffic(t *testing.T) {
	h, rec := setup(t)
	c := NewObjectCache(h, rec)
	probe := trace.NewRecorder("op")
	probe.Reset("op", true)
	c.Get(probe, 1, 0)
	op := probe.Finish()
	var acq, rel bool
	for _, it := range op.Items {
		if it.Kind == trace.KindLockAcq {
			acq = true
		}
		if it.Kind == trace.KindLockRel {
			rel = true
		}
	}
	if !acq || !rel {
		t.Fatal("cache lookup did not record its lock")
	}
}

func TestConnPoolRecordsSemaphore(t *testing.T) {
	h, rec := setup(t)
	p := NewConnPool(h, rec, 3)
	r := trace.NewRecorder("op")
	idx := p.Acquire(r)
	p.Release(r, idx)
	op := r.Finish()
	var acq, rel, book int
	for _, it := range op.Items {
		switch it.Kind {
		case trace.KindSemAcq:
			acq++
			if it.Aux != 3 {
				t.Fatalf("semaphore capacity = %d", it.Aux)
			}
		case trace.KindSemRel:
			rel++
		case trace.KindWrite:
			if it.Addr == p.book {
				book++
			}
		}
	}
	if acq != 1 || rel != 1 {
		t.Fatalf("pool recorded %d acquires and %d releases, want 1 each", acq, rel)
	}
	if book != 2 {
		t.Fatalf("pool wrote its bookkeeping line %d times, want one per checkout and return", book)
	}
	// Distinct pools use distinct semaphores.
	p2 := NewConnPool(h, rec, 2)
	if p2.semID == p.semID {
		t.Fatal("pools share a semaphore ID")
	}
}

func TestDispatcher(t *testing.T) {
	h, rec := setup(t)
	d := NewDispatcher(h, rec)
	r := trace.NewRecorder("op")
	d.Dispatch(r)
	op := r.Finish()
	if len(op.Items) < 4 { // acq, cas, read, write, cas, rel
		t.Fatalf("dispatch recorded %d items", len(op.Items))
	}
}

func TestBadConfigsPanic(t *testing.T) {
	h, rec := setup(t)
	for name, fn := range map[string]func(){
		"pool": func() { NewConnPool(h, rec, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
