package jvm

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// Monitor is a Java-style lock. Its lock word lives on a real (permanent)
// heap cache line, so contended monitors bounce between caches exactly the
// way the paper observed: a handful of hot lock lines produce a large share
// of all cache-to-cache transfers (Figure 14 — one line was 20% of SPECjbb's
// communication).
//
// The functional layer records acquire/release points plus the CAS traffic
// on the lock word; the timing layer (internal/osmodel) resolves contention
// and blocks threads.
type Monitor struct {
	ID   uint64
	Addr mem.Addr
	// Spin marks a monitor whose waiters spin instead of sleeping —
	// HotSpot's behavior for briefly-held hot locks (thin/adaptive
	// locking). Spinners burn busy cycles but resume almost instantly.
	Spin bool
}

// monitorBytes spaces each monitor onto its own cache line so two hot locks
// never false-share (matching how JVMs pad contended locks).
const monitorBytes = mem.LineBytes

// NewMonitor allocates a monitor in the permanent region.
func (h *Heap) NewMonitor(rec *trace.Recorder) *Monitor {
	obj := h.AllocPermanent(rec, monitorBytes)
	h.monitorSeq++
	return &Monitor{ID: h.monitorSeq, Addr: h.Addr(obj)}
}

// NewSpinMonitor allocates a monitor whose waiters spin (for briefly-held
// hot locks).
func (h *Heap) NewSpinMonitor(rec *trace.Recorder) *Monitor {
	m := h.NewMonitor(rec)
	m.Spin = true
	return m
}

// Lock records an acquisition of the monitor: the blocking point, then the
// CAS store on the lock word once the lock is granted.
func (m *Monitor) Lock(rec *trace.Recorder) {
	if m.Spin {
		rec.LockAcquireSpin(m.ID, m.Addr)
	} else {
		rec.LockAcquire(m.ID, m.Addr)
	}
	rec.Write(m.Addr, 8)
}

// Unlock records a release: the store clearing the lock word, then the
// release point that lets a waiter in.
func (m *Monitor) Unlock(rec *trace.Recorder) {
	rec.Write(m.Addr, 8)
	rec.LockRelease(m.ID, m.Addr)
}
