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
// population. Exact mode pins the shift at zero and never resamples — the
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
	"math/bits"
	"sort"
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

const (
	opNone uint8 = iota
	opRead
	opWrite
)

// lineState is one tracked line's cumulative and per-epoch attribution
// state. The transition summary (masks, last accessor, transition counters)
// is what the classifier reads; it is cumulative across epochs because the
// sharing pattern is a property of the address, not of one GC epoch.
type lineState struct {
	addr  uint64
	total Counts
	epoch Counts

	readers, writers uint64 // node bitmask (nodes >= 64 are counted, not masked)
	lastWriter       int16  // -1 = none yet
	lastReader       int16
	lastOp           uint8

	// Transition counters, updated on each ownership handoff (a write by a
	// node that is not the previous writer): a handoff preceded by the new
	// owner's own read is migratory evidence; a handoff straight from the
	// previous owner's write is ping-pong evidence. Consumer reads (a read
	// by a node other than the last writer) are producer-consumer evidence.
	migrations    uint32
	pingpongs     uint32
	consumerReads uint32

	// label is the line's most recent epoch resolution (allocation site or
	// region), carried into the hot-line report.
	label string
}

// classify tags the line from its accumulated transition summary.
func (e *lineState) classify() Pattern {
	if e.total.GetM+e.total.Upgrades == 0 {
		return ReadOnly
	}
	if bits.OnesCount64(e.writers) <= 1 {
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

// DefaultMaxLines bounds the sampled per-line table (~64K lines ≈ a few
// MB of collector state); when exceeded the sample shift increases
// (halving the tracked set) until the table fits.
const DefaultMaxLines = 1 << 16

// PatternStat aggregates the lines and events attributed to one pattern.
type PatternStat struct {
	Lines  uint64 `json:"lines"`
	Events uint64 `json:"events"`
	C2C    uint64 `json:"c2c"`
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

// Collector is the attribution sink. It is not safe for concurrent use;
// like the rest of the simulator it is single-threaded per run. A nil
// *Collector is valid and disabled.
type Collector struct {
	opt      Options
	maxLines int
	shift    uint // sample shift: track iff hash(addr)>>(64-shift) == 0

	// lines holds the tracked lines by value. index maps a block address to
	// (slot+1)<<1, with bit 0 set once Touch marked the line; a line that
	// was only touched has no slot. A sampled table is allocated once, at
	// its cap, on the first event rather than in NewCollector, which keeps
	// a run's setup cheap.
	lines    []lineState
	index    map[uint64]uint32
	timeline []uint64

	// Fallback resolves addresses the epoch resolver does not cover (code
	// regions, stacks, network buffers). Set once at wiring time.
	Fallback Resolver

	sites           map[string]Counts
	epochs          []EpochSummary
	epochIndex      int
	truncatedEpochs int
	resamples       int
	events          uint64 // total recorded events (post-sampling)
}

// NewCollector returns an empty collector.
func NewCollector(opt Options) *Collector {
	c := &Collector{opt: opt, maxLines: DefaultMaxLines, sites: make(map[string]Counts)}
	if opt.Exact {
		c.index = make(map[uint64]uint32)
	}
	return c
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
	clear(c.index)
	c.timeline = nil
	c.sites = make(map[string]Counts)
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

// entry returns the line's state, creating it if tracked, or nil when the
// line is outside the sample.
func (c *Collector) entry(ba uint64) *lineState {
	if !c.opt.Exact && !c.sampled(ba) {
		return nil
	}
	v := c.index[ba]
	if v>>1 == 0 {
		if !c.opt.Exact {
			if len(c.lines) >= c.maxLines {
				c.resample()
				if !c.sampled(ba) {
					return nil
				}
			}
			if c.index == nil {
				c.lines = make([]lineState, 0, c.maxLines)
				c.index = make(map[uint64]uint32, c.maxLines)
			}
		}
		c.lines = append(c.lines, lineState{addr: ba, lastWriter: -1, lastReader: -1})
		v |= uint32(len(c.lines)) << 1
		c.index[ba] = v
	}
	return &c.lines[v>>1-1]
}

// resample raises the sample shift until the table fits under its cap,
// dropping lines that fall outside the finer sample, and re-indexes the
// survivors.
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
	clear(c.index)
	for i := range c.lines {
		c.index[c.lines[i].addr] = uint32(i+1) << 1
	}
}

// Touch marks an L2 access to ba, so Shares counts the line even if it
// never transfers. It does nothing on a sampled collector.
func (c *Collector) Touch(ba uint64) {
	if c != nil && c.opt.Exact {
		c.index[ba] |= 1
	}
}

// Shares returns the C2C transfer count of every touched line, hottest
// first; a touched line with no transfers counts 0 (Figures 14/15).
func (c *Collector) Shares() []uint64 {
	if c == nil {
		return nil
	}
	out := make([]uint64, 0, len(c.index))
	for _, v := range c.index {
		if v&1 == 0 {
			continue
		}
		var n uint64
		if v>>1 > 0 {
			n = c.lines[v>>1-1].total.C2C
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
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

func nodeBit(node int) uint64 {
	if uint(node) < 64 {
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
	if e.lastWriter >= 0 && int(e.lastWriter) != node {
		e.consumerReads++
	}
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
	mix := make(map[string]PatternStat)
	for i := range c.lines {
		e := &c.lines[i]
		if e.epoch.Total() == 0 {
			continue
		}
		label := c.resolve(e.addr, res)
		e.label = label
		s := c.sites[label]
		s.add(e.epoch)
		c.sites[label] = s

		p := e.classify().String()
		ps := mix[p]
		ps.Lines++
		ps.Events += e.epoch.Total()
		ps.C2C += e.epoch.C2C
		mix[p] = ps

		e.epoch = Counts{}
	}
	if len(c.epochs) < maxEpochSummaries {
		c.epochs = append(c.epochs, EpochSummary{Index: c.epochIndex, Trigger: trigger, Mix: mix})
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

// BuildReport assembles the report with the top-N hot lines and objects.
// Call it after the final CloseEpoch so every event has rolled up.
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
		PatternMix:      make(map[string]PatternStat),
		EpochMix:        c.epochs,
	}

	lines := make([]HotLine, 0, len(c.lines))
	for i := range c.lines {
		e := &c.lines[i]
		r.Totals.add(e.total)
		p := e.classify()
		ps := r.PatternMix[p.String()]
		ps.Lines++
		ps.Events += e.total.Total()
		ps.C2C += e.total.C2C
		r.PatternMix[p.String()] = ps
		lines = append(lines, HotLine{
			Addr:    e.addr,
			Pattern: p.String(),
			Label:   e.label,
			Readers: bits.OnesCount64(e.readers),
			Writers: bits.OnesCount64(e.writers),
			Counts:  e.total,
		})
	}
	sort.Slice(lines, func(i, j int) bool {
		if ti, tj := lines[i].Total(), lines[j].Total(); ti != tj {
			return ti > tj
		}
		return lines[i].Addr < lines[j].Addr
	})
	if len(lines) > topN {
		lines = lines[:topN]
	}
	r.HotLines = lines

	// Site roll-ups include only epoch-closed counts; count per-site lines
	// from the lines' latest labels.
	siteLines := make(map[string]uint64)
	for i := range c.lines {
		if e := &c.lines[i]; e.label != "" {
			siteLines[e.label]++
		}
	}
	objs := make([]HotObject, 0, len(c.sites))
	for label, counts := range c.sites {
		objs = append(objs, HotObject{Label: label, Lines: siteLines[label], Counts: counts})
	}
	sort.Slice(objs, func(i, j int) bool {
		if ti, tj := objs[i].Total(), objs[j].Total(); ti != tj {
			return ti > tj
		}
		return objs[i].Label < objs[j].Label
	})
	if len(objs) > topN {
		objs = objs[:topN]
	}
	r.HotObjects = objs
	return r
}
