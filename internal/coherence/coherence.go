// Package coherence implements a MOSI snooping-bus protocol over a set of
// L2 caches, the model of the Sun E6000's snooping interconnect that the
// paper measured.
//
// Each Node owns one L2 cache; a node may front several processors (the
// shared-cache CMP configurations of Figure 16 attach 2, 4, or 8 processors
// to one node). The bus serializes GetS/GetM/Upgrade transactions, counts
// "snoop copybacks" — requests satisfied by another cache holding the block
// Modified or Owned, the event the paper reads from cpustat — and reports
// every access and transaction to an attached attribution collector, whose
// exact mode is the per-line communication profile of Figures 14 and 15 and
// the transfer timeline of Figure 10.
//
// Snoops are resolved through a bus-side duplicate-tag filter — the model of
// the E6000's duplicate tag arrays, which answer snoops without touching the
// processors' caches — implemented as a block-address → (sharer bitmask,
// owner) index so an invalidation visits only the nodes that actually hold
// the block and a read miss probes at most the one M/O/E holder (see
// filter.go). The filter is the bus's only snoop mechanism; the tests keep a
// probe-every-node reference bus (refBus) and require the two to agree
// statistic for statistic.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// MOSI states, stored in a cache.Line's state bits. State 0, an absent
// line, is the cache package's.
const (
	// Modified: sole dirty copy.
	Modified cache.State = 1 + iota
	// Owned: dirty, but other Shared copies may exist; this cache supplies
	// data on snoops and writes back on eviction (MOSI only).
	Owned
	// Shared: clean read-only copy.
	Shared
	// Exclusive: sole clean copy; writes upgrade silently (MESI only).
	Exclusive
)

// Source says who supplied the data for a request.
type Source uint8

const (
	// SrcLocal: the request hit in the node's own L2.
	SrcLocal Source = iota
	// SrcCache: another cache supplied the block (cache-to-cache transfer).
	SrcCache
	// SrcMemory: main memory supplied the block.
	SrcMemory
	// SrcUpgrade: no data movement, only an ownership upgrade (S/O -> M).
	SrcUpgrade
)

// String returns the source's short name.
func (s Source) String() string {
	switch s {
	case SrcLocal:
		return "local"
	case SrcCache:
		return "c2c"
	case SrcMemory:
		return "memory"
	case SrcUpgrade:
		return "upgrade"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// Stats are the bus-wide transaction counters.
type Stats struct {
	GetS          uint64 // read-miss bus transactions
	GetM          uint64 // write-miss bus transactions
	Upgrades      uint64 // S/O->M ownership transactions (no data)
	C2CTransfers  uint64 // transactions served by another cache (snoop copyback)
	MemTransfers  uint64 // transactions served by memory
	Writebacks    uint64 // dirty evictions written back to memory
	Invalidations uint64 // remote copies invalidated by GetM/Upgrade
	L2Hits        uint64 // node-local hits (no bus transaction)
}

// DataRequests returns the number of bus transactions that needed data
// (excludes upgrades): the denominator of the cache-to-cache ratio.
func (s *Stats) DataRequests() uint64 { return s.GetS + s.GetM }

// C2CRatio returns the fraction of L2 data misses satisfied by another
// cache — the paper's Figure 8 metric.
func (s *Stats) C2CRatio() float64 {
	d := s.DataRequests()
	if d == 0 {
		return 0
	}
	return float64(s.C2CTransfers) / float64(d)
}

// Protocol selects the invalidation protocol the bus runs. The E6000 runs
// a MOSI-flavored protocol (dirty owners supply data and retain it); the
// MSI and MESI variants exist for the protocol ablation — the paper's §4.5
// reasons about "a simple MSI invalidation protocol" when analyzing GC
// behavior, and MESI shows what the Exclusive state buys.
type Protocol uint8

const (
	// MOSI: dirty read-sharing; the owner supplies and keeps the line.
	MOSI Protocol = iota
	// MSI: a dirty line read by another cache is written back to memory
	// and both copies become Shared.
	MSI
	// MESI: like MSI plus the Exclusive state (sole clean copy; silent
	// upgrade on write).
	MESI
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case MOSI:
		return "MOSI"
	case MSI:
		return "MSI"
	case MESI:
		return "MESI"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// Bus is the snooping interconnect. It is not safe for concurrent use; the
// simulator is single-threaded per run for determinism.
type Bus struct {
	nodes []*Node
	// Protocol defaults to MOSI (the E6000's flavor).
	Protocol Protocol
	Stats    Stats

	// ClassifyAddr, when set, attributes memory-served misses to address
	// classes (a calibration diagnostic); MissClass counts per class.
	ClassifyAddr func(addr uint64) int
	MissClass    [8]uint64

	// Tracer, when non-nil and with obs.CompMem enabled, records bus
	// transactions as simulated-time instants (sampled — see
	// obs.DefaultMemSample — because bus transactions outnumber every
	// other traced event by orders of magnitude).
	Tracer *obs.Tracer

	// Attr, when non-nil, receives every L2 access (Touch) and every
	// bus-level event (miss, C2C transfer, upgrade, writeback, invalidation)
	// with its block address for per-line and per-object attribution. Off
	// (nil) costs one pointer compare per access and per transaction.
	Attr *attr.Collector

	// Load, when non-nil, records every data-moving transaction (GetS and
	// GetM) into a sliding utilization window for the loaded-latency memory
	// model (see busload.go). Off (nil) costs one pointer compare per
	// transaction, like Attr.
	Load *LoadTracker

	// Sanitize re-checks the protocol's cross-cache invariants after every
	// transaction and panics on the first violation (see sanitize.go). Off
	// by default; COHERENCE_SANITIZE=1 enables it process-wide for CI.
	Sanitize bool

	// filter is the duplicate-tag snoop filter: block address → packed
	// (sharer bitmask, owner) pair (see filter.go).
	filter filterTable
}

// NewBus returns an empty bus; attach caches with AddNode.
func NewBus() *Bus {
	return &Bus{Sanitize: sanitizeEnv, filter: newFilterTable()}
}

// AddNode attaches an L2 cache to the bus and returns its node handle. l2
// must be fresh from cache.New: the snoop filter learns a node's contents
// from the bus transactions that fill it, so a block already resident at
// attach time would be invisible to snoops. onInvalidate, if non-nil, is
// called whenever the protocol removes or downgrades a block in this node's
// L2 so the owner can maintain L1 inclusion (it is also called for local
// evictions caused by Allocate). A bus holds at most MaxNodes nodes.
func (b *Bus) AddNode(l2 *cache.Cache, onInvalidate func(ba uint64)) *Node {
	if len(b.nodes) == MaxNodes {
		panic(fmt.Sprintf("coherence: bus holds at most %d nodes", MaxNodes))
	}
	n := &Node{id: len(b.nodes), l2: l2, bus: b, onInvalidate: onInvalidate}
	b.nodes = append(b.nodes, n)
	return n
}

// ResetStats zeroes the bus counters and the miss classes (cache contents
// stay warm).
func (b *Bus) ResetStats() { b.Stats, b.MissClass = Stats{}, [8]uint64{} }

func (b *Bus) classifyMem(ba uint64) {
	if b.ClassifyAddr != nil {
		if c := b.ClassifyAddr(ba); c >= 0 && c < len(b.MissClass) {
			b.MissClass[c]++
		}
	}
}

// Node is one L2 cache's port onto the bus.
type Node struct {
	id           int
	l2           *cache.Cache
	bus          *Bus
	onInvalidate func(ba uint64)
}

// L2 returns the node's cache.
func (n *Node) L2() *cache.Cache { return n.l2 }

func (n *Node) notifyInvalidate(ba uint64) {
	if n.onInvalidate != nil {
		n.onInvalidate(ba)
	}
}

// Read performs a coherent load of the block containing addr at simulated
// time now, returning who supplied the data.
func (n *Node) Read(addr mem.Addr, now uint64) Source {
	ba := n.l2.BlockAddr(addr)
	n.bus.Attr.Touch(ba)
	if l := n.l2.ProbeTouch(ba); l != nil {
		n.bus.Stats.L2Hits++
		if n.bus.Sanitize {
			n.bus.sanitize(ba)
		}
		return SrcLocal
	}
	// Bus GetS.
	n.bus.Stats.GetS++
	src := SrcMemory
	anyCopy := false
	// Only the M/O/E holder reacts to a GetS; Shared copies are left
	// untouched, so the filter answers for them without a probe.
	if p := n.bus.filter.lookup(ba); p != nil {
		v := *p
		anyCopy = v&fMaskBits&^(1<<uint(n.id)) != 0
		if o := fOwner(v); o >= 0 {
			if l := n.bus.nodes[o].l2.Probe(ba); l != nil {
				if n.bus.snoopGetS(l, ba) {
					src = SrcCache
				}
				if l.State() == Shared {
					// The holder was downgraded all the way to Shared (M
					// under MSI/MESI, or E): the block has no owner now.
					*p = fClearOwner(v)
				}
			}
		}
	}
	if src == SrcMemory && anyCopy && n.bus.Load != nil && n.bus.Load.Intervene() {
		// Loaded model only: a clean remote copy supplies the line instead
		// of the congested memory controller (cache intervention under load).
		src = SrcCache
	}
	if src == SrcCache {
		n.bus.Stats.C2CTransfers++
	} else {
		n.bus.Stats.MemTransfers++
		n.bus.classifyMem(ba)
	}
	if n.bus.Load != nil {
		n.bus.Load.Record(now, false)
	}
	if n.bus.Attr != nil {
		n.bus.Attr.RecordGetS(ba, n.id, src == SrcCache, now)
	}
	if n.bus.Tracer.Admit(obs.CompMem) {
		n.bus.Tracer.Instant(obs.CompMem, "bus.gets", n.id, now,
			obs.Str("src", src.String()), obs.U64("addr", ba))
	}
	st := Shared
	if n.bus.Protocol == MESI && !anyCopy {
		st = Exclusive
	}
	n.insert(ba, st)
	if n.bus.Sanitize {
		n.bus.sanitize(ba)
	}
	return src
}

// snoopGetS applies a GetS snoop to one remote copy l of block ba, returning
// whether that cache supplies the data (a snoop copyback).
func (b *Bus) snoopGetS(l *cache.Line, ba uint64) bool {
	switch l.State() {
	case Modified:
		if b.Protocol == MOSI {
			// Owner supplies data and retains a dirty shared copy.
			l.SetState(Owned)
		} else {
			// MSI/MESI: supply, write back, both Shared and clean.
			l.SetState(Shared)
			l.SetDirty(false)
			b.Stats.Writebacks++
			if b.Attr != nil {
				b.Attr.RecordWriteback(ba, -1)
			}
		}
		return true
	case Owned:
		return true
	case Exclusive:
		// Clean sole copy downgrades; memory still supplies the data on
		// this bus (no clean cache-to-cache on the E6000).
		l.SetState(Shared)
	}
	return false
}

// Write performs a coherent store of the block containing addr at simulated
// time now, returning who supplied the data (SrcLocal for an M hit,
// SrcUpgrade for an ownership upgrade, SrcCache/SrcMemory for a full GetM).
func (n *Node) Write(addr mem.Addr, now uint64) Source {
	ba := n.l2.BlockAddr(addr)
	n.bus.Attr.Touch(ba)
	if l := n.l2.ProbeTouch(ba); l != nil {
		switch l.State() {
		case Modified:
			n.bus.Stats.L2Hits++
			l.SetDirty(true)
			if n.bus.Sanitize {
				n.bus.sanitize(ba)
			}
			return SrcLocal
		case Exclusive:
			// MESI silent upgrade: no bus transaction at all.
			n.bus.Stats.L2Hits++
			l.SetState(Modified)
			l.SetDirty(true)
			if n.bus.Sanitize {
				n.bus.sanitize(ba)
			}
			return SrcLocal
		case Shared, Owned:
			// Upgrade: invalidate remote copies, no data transfer.
			n.bus.Stats.Upgrades++
			n.invalidateRemotes(ba)
			l.SetState(Modified)
			l.SetDirty(true)
			if n.bus.Attr != nil {
				n.bus.Attr.RecordUpgrade(ba, n.id)
			}
			if n.bus.Tracer.Admit(obs.CompMem) {
				n.bus.Tracer.Instant(obs.CompMem, "bus.upgrade", n.id, now, obs.U64("addr", ba))
			}
			if n.bus.Sanitize {
				n.bus.sanitize(ba)
			}
			return SrcUpgrade
		}
	}
	// Bus GetM (read-for-ownership).
	n.bus.Stats.GetM++
	src := SrcMemory
	// A dirty victim means the holder was Modified or Owned — the dirty bit
	// and those states coincide by protocol invariant — so it supplied the
	// data.
	anyCopy, dirty := n.invalidateRemotes(ba)
	if dirty {
		src = SrcCache
	}
	if src == SrcMemory && anyCopy && n.bus.Load != nil && n.bus.Load.Intervene() {
		// Loaded model only: the dying clean copy forwards the line on its
		// invalidation snoop instead of waiting on the congested controller.
		src = SrcCache
	}
	if src == SrcCache {
		n.bus.Stats.C2CTransfers++
	} else {
		n.bus.Stats.MemTransfers++
		n.bus.classifyMem(ba)
	}
	if n.bus.Load != nil {
		n.bus.Load.Record(now, true)
	}
	if n.bus.Attr != nil {
		n.bus.Attr.RecordGetM(ba, n.id, src == SrcCache, now)
	}
	if n.bus.Tracer.Admit(obs.CompMem) {
		n.bus.Tracer.Instant(obs.CompMem, "bus.getm", n.id, now,
			obs.Str("src", src.String()), obs.U64("addr", ba))
	}
	n.insert(ba, Modified).SetDirty(true)
	if n.bus.Sanitize {
		n.bus.sanitize(ba)
	}
	return src
}

// invalidateRemotes removes every other node's copy of ba — the snoop of
// both GetM and Upgrade — visiting the filter's recorded sharers in
// ascending node order. It reports whether any remote copy existed and
// whether one of them was dirty. The caller holds or is about to fill the
// block Modified, so the filter entry is collapsed to "this node alone, as
// owner" in the same step (a GetM's insert re-derives the same value).
func (n *Node) invalidateRemotes(ba uint64) (anyCopy, dirty bool) {
	p := n.bus.filter.lookup(ba)
	if p == nil {
		return false, false
	}
	for m := *p & fMaskBits &^ (1 << uint(n.id)); m != 0; m &= m - 1 {
		other := n.bus.nodes[bits.TrailingZeros64(m)]
		if wasDirty, present := other.l2.Invalidate(ba); present {
			anyCopy = true
			dirty = dirty || wasDirty
			other.notifyInvalidate(ba)
			n.bus.Stats.Invalidations++
			if n.bus.Attr != nil {
				n.bus.Attr.RecordInval(ba, other.id)
			}
		}
	}
	*p = fSetOwner(1<<uint(n.id), n.id)
	return anyCopy, dirty
}

// insert allocates ba in this node's L2, returning the fresh line, writing
// back a dirty victim, and notifying the node's L1s of the eviction.
func (n *Node) insert(ba uint64, st cache.State) *cache.Line {
	l, victim, victimBA := n.l2.Allocate(ba, st)
	n.bus.filterAdd(n.id, ba, st != Shared)
	if victim == 0 {
		return l
	}
	n.bus.filterEvict(n.id, victimBA)
	if victim.State() == Modified || victim.State() == Owned {
		n.bus.Stats.Writebacks++
		if n.bus.Attr != nil {
			n.bus.Attr.RecordWriteback(victimBA, n.id)
		}
	}
	n.notifyInvalidate(victimBA)
	return l
}
