// Package mem defines the simulator's physical address vocabulary: 64-bit
// addresses, access types, cache-line arithmetic, and a per-machine address
// space carved into named regions (kernel code/data, per-component code
// segments, the JVM heap, thread stacks).
//
// Every simulated machine owns one AddrSpace. Addresses never alias between
// machines; only the measured machine's references reach the memory-system
// simulator, mirroring how the paper filtered the application server's
// processors out of a 16-CPU Simics trace.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a simulated physical byte address.
type Addr = uint64

// LineBytes is the coherence-unit size. The paper's experiments use 64-byte
// blocks throughout (L2 and the sweep simulator), so it is a constant here;
// the sweep simulator in internal/cache additionally supports other block
// sizes for its own configurations.
const LineBytes = 64

// Line returns the cache-line-aligned address containing a.
func Line(a Addr) Addr { return a &^ (LineBytes - 1) }

// AccessType classifies a memory reference.
type AccessType uint8

const (
	// Read is a data load.
	Read AccessType = iota
	// Write is a data store.
	Write
	// IFetch is an instruction fetch.
	IFetch
)

// String returns a short name for the access type.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "read"
	case Write:
		return "write"
	case IFetch:
		return "ifetch"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// ComponentID identifies a code component (a synthetic "binary": kernel
// networking code, the JVM, the application server, servlet code, ...).
// Components are registered per machine in an ifetch.CodeLayout; the ID is
// the registration index.
type ComponentID uint8

// Region is a named, contiguous carve-out of a machine's address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + r.Size }

// Contains reports whether a lies inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// regionAlign keeps regions apart on large boundaries so that a stray
// off-by-one can never silently alias two regions' cache lines.
const regionAlign = 1 << 22 // 4 MB

// AddrSpace hands out non-overlapping regions of one machine's physical
// address space. The zero value is not valid; use NewAddrSpace.
type AddrSpace struct {
	next    Addr
	regions []Region
}

// NewAddrSpace returns an address space whose first region starts at a
// non-zero base (so that address 0 can serve as a sentinel).
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{next: regionAlign}
}

// Reserve carves out a new region of at least size bytes, aligned to a 4 MB
// boundary, and returns it. It panics on a zero size: a zero-sized region is
// always a configuration bug.
func (s *AddrSpace) Reserve(name string, size uint64) Region {
	if size == 0 {
		panic("mem: Reserve with zero size: " + name)
	}
	r := Region{Name: name, Base: s.next, Size: size}
	s.regions = append(s.regions, r)
	s.next += (size + regionAlign - 1) &^ (regionAlign - 1)
	return r
}

// FindRegion returns the region containing a, if any. Reserve hands out
// regions at strictly ascending bases, so the candidate is the last region
// whose base is ≤ a — found by binary search. This sits on the per-miss
// classification path (bus ClassifyAddr, attribution), where the old linear
// scan was O(regions) per lookup.
func (s *AddrSpace) FindRegion(a Addr) (Region, bool) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].Base > a })
	if i > 0 && s.regions[i-1].Contains(a) {
		return s.regions[i-1], true
	}
	return Region{}, false
}
