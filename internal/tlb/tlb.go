// Package tlb models the UltraSPARC II's data TLB and the Solaris Intimate
// Shared Memory (ISM) optimization the paper highlights (§3.2, §6):
//
//	"using the intimate shared memory (ISM) feature of Solaris, which
//	 increases the page size from 8 KB to 4 MB, increased performance of
//	 ECperf by more than 10%."
//
// With 8 KB pages a 64-entry TLB reaches 512 KB — far less than the
// application server's heap — so heap-wide access patterns thrash it. With
// 4 MB ISM pages the same TLB reaches 256 MB and TLB misses all but vanish.
// The reproduction's ISM experiment (cmd/ablations, BenchmarkAblationISM)
// measures exactly that effect.
//
// The model is a fully-associative LRU TLB with a software-refill penalty,
// matching the SPARC V9 software-managed TLB (a miss traps to the kernel's
// TSB handler).
package tlb

import "repro/internal/mem"

// Config parameterizes one TLB.
type Config struct {
	// Entries is the TLB size (the UltraSPARC II dTLB held 64 entries).
	Entries int
	// PageBytes is the page size: 8 KB base pages, or 4 MB with ISM.
	// Must be a power of two.
	PageBytes uint64
	// MissPenalty is the software-refill cost in cycles (a trap into the
	// kernel TSB handler; tens of cycles on the UltraSPARC II).
	MissPenalty uint64
}

// TLB is one processor's translation lookaside buffer: fully associative,
// true-LRU.
type TLB struct {
	cfg     Config
	shift   uint
	entries []entry
	clock   uint64

	Lookups uint64
	Misses  uint64
}

type entry struct {
	page    uint64
	valid   bool
	lastUse uint64
}

// New builds a TLB. It panics on a non-power-of-two page size or a
// non-positive entry count (static configuration).
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 {
		panic("tlb: need at least one entry")
	}
	if cfg.PageBytes == 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		panic("tlb: page size must be a power of two")
	}
	shift := uint(0)
	for p := cfg.PageBytes; p > 1; p >>= 1 {
		shift++
	}
	return &TLB{cfg: cfg, shift: shift, entries: make([]entry, cfg.Entries)}
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Access translates addr, returning the stall cycles (0 on a hit,
// MissPenalty on a software refill).
func (t *TLB) Access(addr mem.Addr) uint64 {
	t.Lookups++
	page := addr >> t.shift
	t.clock++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lastUse = t.clock
			return 0
		}
		if !t.entries[victim].valid {
			continue
		}
		if !e.valid || e.lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	t.Misses++
	t.entries[victim] = entry{page: page, valid: true, lastUse: t.clock}
	return t.cfg.MissPenalty
}

// MissRatio returns misses/lookups, or 0 when unused.
func (t *TLB) MissRatio() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Lookups)
}

// ResetStats zeroes the counters, keeping contents warm.
func (t *TLB) ResetStats() {
	t.Lookups = 0
	t.Misses = 0
}
