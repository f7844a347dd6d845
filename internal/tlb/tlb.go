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

// The base-page dTLB. The heap is scaled ~20× down from the paper's
// testbed, so the base-page TLB reach is scaled to match: reach/heap stays
// at the real machine's ratio (64 × 8 KB = 512 KB against a ~1.4 GB heap
// becomes 64 × 1 KB = 64 KB against the ~72 MB simulated heap). ISM's 4 MB
// pages map the whole simulated heap, so an ISM machine models no TLB.
const (
	// entries is the TLB size (the UltraSPARC II dTLB held 64 entries).
	entries = 64
	// pageShift is log2 of the scaled base page size, 1 KB.
	pageShift = 10
	// missPenalty is the software-refill cost in cycles (a trap into the
	// kernel TSB handler).
	missPenalty uint64 = 110
)

// TLB is one processor's translation lookaside buffer: fully associative,
// true-LRU.
type TLB struct {
	entries [entries]entry
	clock   uint64

	Lookups uint64
	Misses  uint64
}

type entry struct {
	page    uint64
	valid   bool
	lastUse uint64
}

// New builds an empty TLB.
func New() *TLB { return &TLB{} }

// Access translates addr, returning the stall cycles (0 on a hit,
// missPenalty on a software refill).
func (t *TLB) Access(addr mem.Addr) uint64 {
	t.Lookups++
	page := addr >> pageShift
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
	return missPenalty
}

// ResetStats zeroes the counters, keeping contents warm.
func (t *TLB) ResetStats() {
	t.Lookups = 0
	t.Misses = 0
}
