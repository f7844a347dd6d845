// Package attr is the memory-event attribution layer: it turns the bus's
// aggregate counters (misses, cache-to-cache transfers, invalidations,
// writebacks) into address- and object-centric tables that explain *which
// data* causes the traffic.
//
// The coherence bus reports every bus-level event with its block address
// into a per-line table. Each tracked line accumulates event counts plus a
// compact summary of its coherence transition string — who read, who wrote,
// and in what order — from which the classifier tags the line with one of
// the paper's §4.3 sharing patterns: read-only, producer-consumer,
// migratory, or ping-pong (plus private for lines a single node both reads
// and writes).
//
// Memory is bounded by deterministic power-of-two address sampling: a line
// is tracked iff the top `shift` bits of its hashed address are zero, so
// the tracked set is an unbiased 1/2^shift spatial sample. The shift starts
// at zero (track everything) and adapts upward when the table exceeds its
// cap; because the sampling masks are nested, every surviving line's
// history is complete, and scaling counts by 2^shift estimates the
// population. A tracked line costs 112 bytes (32-bit epoch counts and
// masks, its label an index into the collector's interned site table) plus
// an open-addressed index of 32-bit slots; a sampled table is allocated at
// its DefaultMaxLines cap, 7 MiB of lines and a 512 KiB index. A report
// keeps only its top-N lines, so building one allocates the same whatever
// the table holds.
//
// Exact mode pins the shift at zero and never resamples — the
// conservation property (per-line counts sum to the bus's global Stats) is
// tested in that mode. An exact collector is also the communication profile
// of Figures 14/15: the bus marks every L2 access with Touch, so Shares
// ranks every touched line, transferring or not. Options.TimelineBin bins
// C2C transfers by simulated time for Figure 10.
//
// Object attribution works in GC epochs: the JVM heap closes an epoch at
// every collection boundary (addresses are about to be reassigned), handing
// the collector a resolver over the *pre-GC* layout. Each line's events
// accrued during the epoch roll up to the allocation site whose object
// covered that address during the epoch; a fallback resolver (wired by the
// driver to the machine's address-space regions) labels non-heap lines
// (code, stacks, network buffers).
//
// A nil *Collector is valid and disabled; the bus guards its hot path with
// one nil check.
package attr

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
)

// Pattern is a line's sharing-pattern classification (the paper's §4.3
// taxonomy, plus Private and ReadOnly for unshared and unwritten lines).
type Pattern uint8

const (
	// ReadOnly: the line was never written over the bus (instruction blocks,
	// immutable data); all copies are Shared.
	ReadOnly Pattern = iota
	// Private: one node both reads and writes the line; no communication.
	Private
	// ProducerConsumer: exactly one node writes, other nodes read — each
	// write invalidates the consumers, each consumer read is a transfer.
	ProducerConsumer
	// Migratory: the line's ownership migrates — a node reads the current
	// value then writes it (read-modify-write under a lock is the classic
	// case), so each handoff is a C2C read plus an upgrade.
	Migratory
	// PingPong: multiple nodes write the line with few intervening reads —
	// ownership bounces on every access (contended locks, false sharing).
	PingPong
	numPatterns
)

// String names the pattern as used in reports.
func (p Pattern) String() string {
	switch p {
	case ReadOnly:
		return "read-only"
	case Private:
		return "private"
	case ProducerConsumer:
		return "producer-consumer"
	case Migratory:
		return "migratory"
	case PingPong:
		return "ping-pong"
	default:
		return "unknown"
	}
}

// PatternNames lists every pattern label in classification order (for
// reports that want a stable row order).
func PatternNames() []string {
	out := make([]string, numPatterns)
	for i := Pattern(0); i < numPatterns; i++ {
		out[i] = i.String()
	}
	return out
}

// Counts are one line's (or one aggregate's) attributed event counts.
// Misses that went to memory are GetS+GetM-C2C.
type Counts struct {
	GetS       uint64 `json:"gets"`
	GetM       uint64 `json:"getm"`
	Upgrades   uint64 `json:"upgrades"`
	C2C        uint64 `json:"c2c"`
	Writebacks uint64 `json:"writebacks"`
	Invals     uint64 `json:"invals"`
}

// Total returns all attributed events.
func (c *Counts) Total() uint64 {
	return c.GetS + c.GetM + c.Upgrades + c.Writebacks + c.Invals
}

func (c *Counts) add(o Counts) {
	c.GetS += o.GetS
	c.GetM += o.GetM
	c.Upgrades += o.Upgrades
	c.C2C += o.C2C
	c.Writebacks += o.Writebacks
	c.Invals += o.Invals
}

// Resolver maps a block address to an attribution label (an allocation
// site, a heap generation, a code region). ok=false defers to the next
// resolver in the chain.
type Resolver func(addr uint64) (label string, ok bool)

// Access kinds a line remembers; zero means none yet.
const (
	opRead uint8 = iota + 1
	opWrite
)

// epochCounts are one line's counts within the current GC epoch. They are
// Counts narrowed to 32 bits: they reset at every epoch close, and one line
// cannot see 2^32 bus events between two collections.
type epochCounts struct {
	GetS, GetM, Upgrades, C2C, Writebacks, Invals uint32
}

func (e *epochCounts) total() uint64 {
	return uint64(e.GetS) + uint64(e.GetM) + uint64(e.Upgrades) + uint64(e.Writebacks) + uint64(e.Invals)
}

func (e *epochCounts) counts() Counts {
	return Counts{GetS: uint64(e.GetS), GetM: uint64(e.GetM), Upgrades: uint64(e.Upgrades),
		C2C: uint64(e.C2C), Writebacks: uint64(e.Writebacks), Invals: uint64(e.Invals)}
}

// maskNodes is the number of nodes the readers/writers masks describe: the
// coherence bus holds at most 32 nodes (coherence.MaxNodes), so a node
// past the mask never occurs there.
const maskNodes = 32

// lineState is one tracked line's cumulative and per-epoch attribution
// state, packed into 112 bytes. The transition summary (masks, last
// accessor, transition counters) is what the classifier reads; it is
// cumulative across epochs because the sharing pattern is a property of
// the address, not of one GC epoch. The fields a Touch reads and writes
// (addr, touched) share the first 24 bytes.
type lineState struct {
	addr uint64
	// label is the line's most recent epoch resolution (allocation site or
	// region), carried into the hot-line report: an index+1 into the
	// collector's site table, 0 before the line's first epoch close.
	label                  uint32
	lastWriter, lastReader int16 // -1 = none yet
	lastOp                 uint8
	touched                bool // exact mode: an L2 access touched the line (Shares)

	// Transition counters, updated on each ownership handoff (a write by a
	// node that is not the previous writer): a handoff preceded by the new
	// owner's own read is migratory evidence; a handoff straight from the
	// previous owner's write is ping-pong evidence.
	migrations uint32
	pingpongs  uint32

	readers, writers uint32 // node bitmask (nodes >= maskNodes are not masked)
	epoch            epochCounts
	total            Counts
}

// classify tags the line from its accumulated transition summary.
func (e *lineState) classify() Pattern {
	if e.total.GetM+e.total.Upgrades == 0 {
		return ReadOnly
	}
	if bits.OnesCount32(e.writers) <= 1 {
		if e.readers&^e.writers != 0 {
			return ProducerConsumer
		}
		return Private
	}
	if e.migrations >= e.pingpongs {
		return Migratory
	}
	return PingPong
}

// Options configure a Collector.
type Options struct {
	// Exact disables sampling: every line is tracked and the table is
	// unbounded. Conservation against the bus's global counters holds only
	// in this mode.
	Exact bool
	// TimelineBin, when positive, bins C2C transfers by simulated time in
	// bins of this many cycles (Figure 10; see Timeline).
	TimelineBin uint64
}

// DefaultMaxLines bounds the sampled per-line table: at 112 bytes a line,
// plus an index of 32-bit slots twice the cap, a table at its cap holds
// 7 MiB of lines and a 512 KiB index. When exceeded the sample shift
// increases (halving the tracked set) until the table fits.
const DefaultMaxLines = 1 << 16

// PatternStat aggregates the lines and events attributed to one pattern.
type PatternStat struct {
	Lines  uint64 `json:"lines"`
	Events uint64 `json:"events"`
	C2C    uint64 `json:"c2c"`
}

// patternMix accumulates PatternStats by pattern; mixMap renders the
// patterns that have lines as a report's label-keyed map.
type patternMix [numPatterns]PatternStat

func (m *patternMix) mixMap() map[string]PatternStat {
	out := make(map[string]PatternStat)
	for p, ps := range m {
		if ps.Lines > 0 {
			out[Pattern(p).String()] = ps
		}
	}
	return out
}

// EpochSummary is the pattern mix of one attribution window (the interval
// between two GC-epoch boundaries). Workload phases between collections are
// exactly these windows.
type EpochSummary struct {
	Index   int    `json:"index"`
	Trigger string `json:"trigger"` // "minor", "major", or "final"
	// Mix maps pattern label → lines/events active in this epoch. Lines are
	// classified from their cumulative transition state at epoch close.
	Mix map[string]PatternStat `json:"mix"`
}

// maxEpochSummaries caps the retained per-epoch detail; later epochs still
// roll objects up but stop appending summaries (TruncatedEpochs counts them).
const maxEpochSummaries = 512

// site is one resolved label and the epoch-closed counts rolled up to it.
type site struct {
	label  string
	counts Counts
}

// Collector is the attribution sink. It is not safe for concurrent use;
// like the rest of the simulator it is single-threaded per run. A nil
// *Collector is valid and disabled.
type Collector struct {
	opt      Options
	maxLines int
	shift    uint // sample shift: track iff hash(addr)>>(64-shift) == 0

	// lines holds the tracked lines by value. A sampled table is allocated
	// once, at its cap, on the first event rather than in NewCollector,
	// which keeps a run's setup cheap.
	lines []lineState
	// slots is an open-addressed, linear-probed index over the tracked
	// addresses: 0 is empty, a value v < touchedKey is line v-1, and
	// touchedKey|k is touchedKeys[k], an exact-mode address that Touch
	// marked but that has no bus event yet and so owns no lineState.
	// slotShift is 64 - log2(len(slots)); used counts the full slots.
	slots       []uint32
	slotShift   uint
	used        int
	touchedKeys []uint64
	touchedOnly int // slots that refer to touchedKeys (touched-only lines)
	timeline    []uint64

	// Fallback resolves addresses the epoch resolver does not cover (code
	// regions, stacks, network buffers). Set once at wiring time.
	Fallback Resolver

	// sites interns every label an epoch close resolved a line to;
	// siteIDs maps a label to its index.
	sites           []site
	siteIDs         map[string]uint32
	epochs          []EpochSummary
	epochIndex      int
	truncatedEpochs int
	resamples       int
	events          uint64 // total recorded events (post-sampling)
}

// touchedKey flags a slot that refers to touchedKeys rather than lines.
const touchedKey = 1 << 31

// exactSlots is an exact collector's initial index size; the index
// doubles whenever it is three quarters full.
const exactSlots = 1 << 12

// NewCollector returns an empty collector.
func NewCollector(opt Options) *Collector {
	c := &Collector{opt: opt, maxLines: DefaultMaxLines, siteIDs: make(map[string]uint32)}
	if opt.Exact {
		c.setSlots(exactSlots)
	}
	return c
}

// setSlots replaces the index with an empty one of n (a power of two) slots.
func (c *Collector) setSlots(n int) {
	c.slots = make([]uint32, n)
	c.slotShift = uint(64 - bits.TrailingZeros(uint(n)))
	c.used = 0
}

// Len returns the number of tracked lines.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	return len(c.lines)
}

// Events returns the total recorded (post-sampling) event count.
func (c *Collector) Events() uint64 {
	if c == nil {
		return 0
	}
	return c.events
}

// EpochCount returns the number of closed attribution epochs.
func (c *Collector) EpochCount() int {
	if c == nil {
		return 0
	}
	return c.epochIndex
}

// Resamples returns how many times the sampled table halved itself.
func (c *Collector) Resamples() int {
	if c == nil {
		return 0
	}
	return c.resamples
}

// Reset drops all attribution state (tables, site roll-ups, epochs) while
// keeping the sampling configuration. Drivers call it at the warm-up/measure
// boundary so reports cover exactly the measurement window.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.lines = c.lines[:0]
	clear(c.slots)
	c.used = 0
	c.touchedKeys = c.touchedKeys[:0]
	c.touchedOnly = 0
	c.timeline = nil
	c.sites = c.sites[:0]
	clear(c.siteIDs)
	c.epochs = nil
	c.epochIndex = 0
	c.truncatedEpochs = 0
	c.events = 0
	// The adapted shift is kept: the measurement window sees the same
	// working set the warm-up did, so re-learning it would only churn.
}

// addrHash spreads a block address for sampling; block addresses have at
// least 6 trailing zeros, so they are shifted out first.
func addrHash(ba uint64) uint64 { return (ba >> 6) * 0x9E3779B97F4A7C15 }

// sampled reports whether the line is in the tracked sample. Nested masks:
// a line sampled at shift s is sampled at every shift < s, so adapting the
// shift upward preserves complete histories for the survivors.
func (c *Collector) sampled(ba uint64) bool {
	return addrHash(ba)>>(64-c.shift) == 0
}

// key returns the address a full slot refers to.
func (c *Collector) key(v uint32) uint64 {
	if v&touchedKey != 0 {
		return c.touchedKeys[v&^touchedKey]
	}
	return c.lines[v-1].addr
}

// probe returns the index of ba's slot, or of the empty slot where ba
// belongs. It hashes with the product's top bits below the first shift:
// every sampled address has those shift bits zero, so indexing by them
// would crowd the whole sample into 1/2^shift of the table.
func (c *Collector) probe(ba uint64) int {
	mask := len(c.slots) - 1
	i := int(addrHash(ba) << c.shift >> c.slotShift)
	for {
		if v := c.slots[i]; v == 0 || c.key(v) == ba {
			return i
		}
		i = (i + 1) & mask
	}
}

// room accounts for one more full slot, first doubling an index that is
// three quarters full, and returns the empty slot where ba now belongs
// (i, unless the index grew). Only an exact index grows: a sampled one is
// sized for twice its line cap.
func (c *Collector) room(i int, ba uint64) int {
	if c.used >= len(c.slots)*3/4 {
		c.grow()
		i = c.probe(ba)
	}
	c.used++
	return i
}

// grow doubles the index, compacting touchedKeys to the live entries.
func (c *Collector) grow() {
	old, keys := c.slots, c.touchedKeys
	c.setSlots(2 * len(old))
	c.touchedKeys = make([]uint64, 0, c.touchedOnly)
	for _, v := range old {
		if v == 0 {
			continue
		}
		var ba uint64
		if v&touchedKey != 0 {
			ba = keys[v&^touchedKey]
			v = touchedKey | uint32(len(c.touchedKeys))
			c.touchedKeys = append(c.touchedKeys, ba)
		} else {
			ba = c.lines[v-1].addr
		}
		c.slots[c.probe(ba)] = v
		c.used++
	}
}

// entry returns the line's state, creating it if tracked, or nil when the
// line is outside the sample.
func (c *Collector) entry(ba uint64) *lineState {
	if !c.opt.Exact && !c.sampled(ba) {
		return nil
	}
	if c.slots == nil {
		c.lines = make([]lineState, 0, c.maxLines)
		c.setSlots(1 << bits.Len(uint(2*c.maxLines-1)))
	}
	i := c.probe(ba)
	v := c.slots[i]
	if v != 0 && v&touchedKey == 0 {
		return &c.lines[v-1]
	}
	if !c.opt.Exact && len(c.lines) >= c.maxLines {
		c.resample()
		if !c.sampled(ba) {
			return nil
		}
		i = c.probe(ba)
	}
	if v != 0 {
		// A touched-only address gains its line; its touchedKeys entry is
		// dropped at the next grow.
		c.touchedOnly--
	} else {
		i = c.room(i, ba)
	}
	c.lines = append(c.lines, lineState{addr: ba, lastWriter: -1, lastReader: -1, touched: v != 0})
	c.slots[i] = uint32(len(c.lines))
	return &c.lines[len(c.lines)-1]
}

// resample raises the sample shift until the table fits under its cap,
// dropping lines that fall outside the finer sample, and re-indexes the
// survivors under the new shift.
func (c *Collector) resample() {
	for len(c.lines) >= c.maxLines {
		c.shift++
		c.resamples++
		kept := c.lines[:0]
		for _, e := range c.lines {
			if c.sampled(e.addr) {
				kept = append(kept, e)
			}
		}
		c.lines = kept
	}
	clear(c.slots)
	for i := range c.lines {
		c.slots[c.probe(c.lines[i].addr)] = uint32(i + 1)
	}
	c.used = len(c.lines)
}

// Touch marks an L2 access to ba, so Shares counts the line even if it
// never transfers. It does nothing on a sampled collector.
func (c *Collector) Touch(ba uint64) {
	if c == nil || !c.opt.Exact {
		return
	}
	i := c.probe(ba)
	switch v := c.slots[i]; {
	case v == 0:
		i = c.room(i, ba)
		c.slots[i] = touchedKey | uint32(len(c.touchedKeys))
		c.touchedKeys = append(c.touchedKeys, ba)
		c.touchedOnly++
	case v&touchedKey == 0:
		c.lines[v-1].touched = true
	}
}

// Shares returns the C2C transfer count of every touched line, hottest
// first; a touched line with no transfers counts 0 (Figures 14/15).
func (c *Collector) Shares() []uint64 {
	if c == nil {
		return nil
	}
	out := make([]uint64, 0, len(c.lines)+c.touchedOnly)
	for i := range c.lines {
		if e := &c.lines[i]; e.touched {
			out = append(out, e.total.C2C)
		}
	}
	slices.SortFunc(out, func(a, b uint64) int { return cmp.Compare(b, a) })
	// Touched-only lines have no transfers: they sort last.
	return append(out, make([]uint64, c.touchedOnly)...)
}

// Timeline returns the C2C transfers per TimelineBin cycles, indexed by
// absolute simulated time (Figure 10); nil when TimelineBin is 0.
func (c *Collector) Timeline() []uint64 {
	if c == nil {
		return nil
	}
	return c.timeline
}

// recordC2C bins one C2C transfer at simulated time now. The timeline
// counts every transfer, sampled line or not.
func (c *Collector) recordC2C(now uint64) {
	if bin := c.opt.TimelineBin; bin > 0 {
		i := int(now / bin)
		for len(c.timeline) <= i {
			c.timeline = append(c.timeline, 0)
		}
		c.timeline[i]++
	}
}

func nodeBit(node int) uint32 {
	if uint(node) < maskNodes {
		return 1 << uint(node)
	}
	return 0
}

// RecordGetS attributes a read-miss bus transaction by node at simulated
// time now; c2c marks it served by another cache.
func (c *Collector) RecordGetS(ba uint64, node int, c2c bool, now uint64) {
	if c == nil {
		return
	}
	if c2c {
		c.recordC2C(now)
	}
	e := c.entry(ba)
	if e == nil {
		return
	}
	c.events++
	e.total.GetS++
	e.epoch.GetS++
	if c2c {
		e.total.C2C++
		e.epoch.C2C++
	}
	e.readers |= nodeBit(node)
	e.lastReader = int16(node)
	e.lastOp = opRead
}

// RecordGetM attributes a write-miss bus transaction by node at simulated
// time now.
func (c *Collector) RecordGetM(ba uint64, node int, c2c bool, now uint64) {
	if c == nil {
		return
	}
	if c2c {
		c.recordC2C(now)
	}
	e := c.entry(ba)
	if e == nil {
		return
	}
	c.events++
	e.total.GetM++
	e.epoch.GetM++
	if c2c {
		e.total.C2C++
		e.epoch.C2C++
	}
	c.recordWrite(e, node)
}

// RecordUpgrade attributes an ownership-upgrade transaction by node.
func (c *Collector) RecordUpgrade(ba uint64, node int) {
	if c == nil {
		return
	}
	e := c.entry(ba)
	if e == nil {
		return
	}
	c.events++
	e.total.Upgrades++
	e.epoch.Upgrades++
	c.recordWrite(e, node)
}

func (c *Collector) recordWrite(e *lineState, node int) {
	e.writers |= nodeBit(node)
	if e.lastWriter >= 0 && int(e.lastWriter) != node {
		// Ownership handoff: migratory when the new owner read the line
		// since the previous write (read-modify-write), ping-pong when
		// ownership bounced write-to-write.
		if e.lastOp == opRead && int(e.lastReader) == node {
			e.migrations++
		} else {
			e.pingpongs++
		}
	}
	e.lastWriter = int16(node)
	e.lastOp = opWrite
}

// RecordWriteback attributes a dirty eviction's memory write. node may be
// -1 when the supplier is not identified (it does not enter the masks).
func (c *Collector) RecordWriteback(ba uint64, node int) {
	if c == nil {
		return
	}
	e := c.entry(ba)
	if e == nil {
		return
	}
	c.events++
	e.total.Writebacks++
	e.epoch.Writebacks++
	_ = node
}

// RecordInval attributes one remote copy's invalidation (node is the node
// that lost its copy).
func (c *Collector) RecordInval(ba uint64, node int) {
	if c == nil {
		return
	}
	e := c.entry(ba)
	if e == nil {
		return
	}
	c.events++
	e.total.Invals++
	e.epoch.Invals++
	_ = node
}

// resolve labels an address through the epoch resolver, then the fallback.
func (c *Collector) resolve(ba uint64, res Resolver) string {
	if res != nil {
		if label, ok := res(ba); ok {
			return label
		}
	}
	if c.Fallback != nil {
		if label, ok := c.Fallback(ba); ok {
			return label
		}
	}
	return "unattributed"
}

// site returns the roll-up of label, interning it on first use.
func (c *Collector) site(label string) uint32 {
	id, ok := c.siteIDs[label]
	if !ok {
		c.sites = append(c.sites, site{label: label})
		id = uint32(len(c.sites))
		c.siteIDs[label] = id
	}
	return id
}

// CloseEpoch ends the current attribution window: every line active in the
// window is resolved to an object/site label through res (valid for the
// window's address layout — the heap calls this *before* a collection
// moves anything) and its window counts roll up to that label; the window's
// pattern mix is appended; per-epoch counts reset. trigger names the
// boundary ("minor", "major", "final").
func (c *Collector) CloseEpoch(res Resolver, trigger string) {
	if c == nil {
		return
	}
	var mix patternMix
	for i := range c.lines {
		e := &c.lines[i]
		n := e.epoch.total()
		if n == 0 {
			continue
		}
		e.label = c.site(c.resolve(e.addr, res))
		c.sites[e.label-1].counts.add(e.epoch.counts())

		ps := &mix[e.classify()]
		ps.Lines++
		ps.Events += n
		ps.C2C += uint64(e.epoch.C2C)

		e.epoch = epochCounts{}
	}
	if len(c.epochs) < maxEpochSummaries {
		c.epochs = append(c.epochs, EpochSummary{Index: c.epochIndex, Trigger: trigger, Mix: mix.mixMap()})
	} else {
		c.truncatedEpochs++
	}
	c.epochIndex++
}

// HotLine is one line's report row.
type HotLine struct {
	Addr    uint64 `json:"addr"`
	Pattern string `json:"pattern"`
	Label   string `json:"label"`
	Readers int    `json:"readers"`
	Writers int    `json:"writers"`
	Counts
}

// HotObject is one allocation site's (or region's) report row.
type HotObject struct {
	Label string `json:"label"`
	Lines uint64 `json:"lines"`
	Counts
}

// Report is the collector's serializable summary: totals, the pattern mix,
// and the top-N hot lines and objects. All slices are deterministically
// ordered (events descending, then address/label ascending), so the same
// run always marshals to identical bytes.
type Report struct {
	Exact           bool                   `json:"exact"`
	SampleShift     uint                   `json:"sample_shift"`
	ScaleFactor     uint64                 `json:"scale_factor"` // multiply counts by this to estimate the population
	LinesTracked    int                    `json:"lines_tracked"`
	Resamples       int                    `json:"resamples"`
	Events          uint64                 `json:"events"`
	Epochs          int                    `json:"epochs"`
	TruncatedEpochs int                    `json:"truncated_epochs,omitempty"`
	Totals          Counts                 `json:"totals"`
	PatternMix      map[string]PatternStat `json:"pattern_mix"`
	HotLines        []HotLine              `json:"hot_lines"`
	HotObjects      []HotObject            `json:"hot_objects"`
	EpochMix        []EpochSummary         `json:"epoch_mix"`
}

// hotter reports whether line a ranks above line b in the hot-line table:
// more events, then the lower address.
func hotter(a, b *lineState) bool {
	if ta, tb := a.total.Total(), b.total.Total(); ta != tb {
		return ta > tb
	}
	return a.addr < b.addr
}

// hottest returns the indices of the n hottest lines, hottest first. It
// keeps a bounded min-heap whose root is the coldest line kept so far, so
// it costs O(lines·log n) time and n indices of memory.
func (c *Collector) hottest(n int) []int {
	n = min(n, len(c.lines))
	if n <= 0 {
		return nil
	}
	h := make([]int, 0, n)
	colder := func(i, j int) bool { return hotter(&c.lines[h[j]], &c.lines[h[i]]) }
	for i := range c.lines {
		if len(h) < n {
			h = append(h, i)
			for j := len(h) - 1; j > 0 && colder(j, (j-1)/2); j = (j - 1) / 2 {
				h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			}
			continue
		}
		if !hotter(&c.lines[i], &c.lines[h[0]]) {
			continue
		}
		h[0] = i
		for j := 0; ; {
			k := 2*j + 1
			if k >= n {
				break
			}
			if k+1 < n && colder(k+1, k) {
				k++
			}
			if !colder(k, j) {
				break
			}
			h[j], h[k] = h[k], h[j]
			j = k
		}
	}
	slices.SortFunc(h, func(a, b int) int {
		if hotter(&c.lines[a], &c.lines[b]) {
			return -1
		}
		return 1
	})
	return h
}

// BuildReport assembles the report with the top-N hot lines and objects.
// Call it after the final CloseEpoch so every event has rolled up. Its
// allocations do not grow with the table: only the top-N lines become
// report rows.
func (c *Collector) BuildReport(topN int) *Report {
	if c == nil {
		return nil
	}
	if topN <= 0 {
		topN = 20
	}
	r := &Report{
		Exact:           c.opt.Exact,
		SampleShift:     c.shift,
		ScaleFactor:     1 << c.shift,
		LinesTracked:    len(c.lines),
		Resamples:       c.resamples,
		Events:          c.events,
		Epochs:          c.epochIndex,
		TruncatedEpochs: c.truncatedEpochs,
		EpochMix:        c.epochs,
	}

	// Site roll-ups include only epoch-closed counts; count per-site lines
	// from the lines' latest labels.
	var mix patternMix
	siteLines := make([]uint64, len(c.sites))
	for i := range c.lines {
		e := &c.lines[i]
		r.Totals.add(e.total)
		ps := &mix[e.classify()]
		ps.Lines++
		ps.Events += e.total.Total()
		ps.C2C += e.total.C2C
		if e.label != 0 {
			siteLines[e.label-1]++
		}
	}
	r.PatternMix = mix.mixMap()

	top := c.hottest(topN)
	r.HotLines = make([]HotLine, len(top))
	for k, i := range top {
		e := &c.lines[i]
		r.HotLines[k] = HotLine{
			Addr:    e.addr,
			Pattern: e.classify().String(),
			Label:   c.label(e.label),
			Readers: bits.OnesCount32(e.readers),
			Writers: bits.OnesCount32(e.writers),
			Counts:  e.total,
		}
	}

	objs := make([]HotObject, len(c.sites))
	for i, s := range c.sites {
		objs[i] = HotObject{Label: s.label, Counts: s.counts}
		if s.label != "" { // an empty label counts no lines
			objs[i].Lines = siteLines[i]
		}
	}
	slices.SortFunc(objs, func(a, b HotObject) int {
		if ta, tb := a.Total(), b.Total(); ta != tb {
			return cmp.Compare(tb, ta)
		}
		return strings.Compare(a.Label, b.Label)
	})
	r.HotObjects = objs[:min(topN, len(objs))]
	return r
}

// label returns the name of a line's site index (0: never resolved).
func (c *Collector) label(id uint32) string {
	if id == 0 {
		return ""
	}
	return c.sites[id-1].label
}
