package memsys

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// refHierarchy is the reference model Hierarchy is checked against: the same
// machine built by brute force. Each cache is a map from block address to
// line plus, per set, a list of the set's blocks in most-recently-used order,
// so a tag is always the full block address; the bus probes every other L2
// on every transaction. It shares no cache or snoop code with Hierarchy, so a
// bug in the packed tag words, the snoop filter or the inclusion hooks cannot
// hide in its own reference. It reuses the data TLB, the loaded model's
// utilization tracker and its latency curves, which have tests of their own.
type refHierarchy struct {
	cfg      Config
	l1i, l1d []*refCache // by CPU
	l2       []*refCache // by group of CPUsPerL2 processors
	dtlb     []*tlb.TLB  // by CPU; nil entries without a data TLB
	proto    coherence.Protocol
	classify func(ba uint64) int

	bus                     coherence.Stats
	missClass               [8]uint64
	dataMisses, fetchMisses uint64

	// The loaded model: nil load under MemFixed.
	load               *coherence.LoadTracker
	lc                 LoadedConfig
	memExtra, c2cExtra uint64
}

// refCache is one brute-force cache: every resident block's line, and each
// set's resident blocks, most recently used first.
type refCache struct {
	cfg   cache.Config
	lines map[uint64]*refLine
	lru   [][]uint64
	stats cache.Stats
}

type refLine struct {
	state cache.State
	dirty bool
}

func newRefCache(cfg cache.Config) *refCache {
	return &refCache{cfg: cfg, lines: map[uint64]*refLine{}, lru: make([][]uint64, cfg.Sets())}
}

func (c *refCache) block(a mem.Addr) uint64 {
	return a / uint64(c.cfg.BlockBytes) * uint64(c.cfg.BlockBytes)
}

func (c *refCache) set(ba uint64) *[]uint64 {
	return &c.lru[ba/uint64(c.cfg.BlockBytes)%uint64(len(c.lru))]
}

// touch returns ba's line and makes it most recently used, or returns nil.
func (c *refCache) touch(ba uint64) *refLine {
	l := c.lines[ba]
	if l != nil {
		s := c.set(ba)
		i := slices.Index(*s, ba)
		*s = slices.Insert(slices.Delete(*s, i, i+1), 0, ba)
	}
	return l
}

// fill inserts ba, which is not resident, as the most recently used line,
// evicting the least recently used one from a full set. It returns the new
// line and the victim's block and line, if there was one.
func (c *refCache) fill(ba uint64, st cache.State, dirty bool) (l *refLine, victim uint64, vl *refLine) {
	s := c.set(ba)
	if len(*s) == c.cfg.Assoc {
		victim = (*s)[len(*s)-1]
		vl = c.drop(victim)
	}
	l = &refLine{state: st, dirty: dirty}
	c.lines[ba] = l
	*s = slices.Insert(*s, 0, ba)
	return l, victim, vl
}

// drop removes ba and returns its line, or returns nil when ba is absent.
func (c *refCache) drop(ba uint64) *refLine {
	l := c.lines[ba]
	if l != nil {
		delete(c.lines, ba)
		s := c.set(ba)
		i := slices.Index(*s, ba)
		*s = slices.Delete(*s, i, i+1)
	}
	return l
}

func newRefHierarchy(cfg Config, proto coherence.Protocol, classify func(uint64) int) *refHierarchy {
	r := &refHierarchy{cfg: cfg, proto: proto, classify: classify}
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		r.l1i = append(r.l1i, newRefCache(cfg.L1I))
		r.l1d = append(r.l1d, newRefCache(cfg.L1D))
		var t *tlb.TLB
		if cfg.DTLB {
			t = tlb.New()
		}
		r.dtlb = append(r.dtlb, t)
	}
	for g := 0; g < cfg.CPUs/cfg.CPUsPerL2; g++ {
		r.l2 = append(r.l2, newRefCache(cfg.L2))
	}
	if cfg.Model == MemLoaded {
		r.lc = cfg.Loaded.withDefaults()
		r.load = coherence.NewLoadTracker(coherence.LoadConfig{
			WindowCycles:          r.lc.WindowCycles,
			Buckets:               r.lc.Buckets,
			LineCycles:            r.lc.LineCycles,
			WriteWeight:           r.lc.WriteWeight,
			InterventionStartUtil: r.lc.InterventionStartUtil,
			InterventionMaxFrac:   r.lc.InterventionMaxFrac,
		})
	}
	return r
}

// dropL1s removes ba from the L1s of every processor behind group g's L2.
func (r *refHierarchy) dropL1s(g int, ba uint64) {
	for cpu := g * r.cfg.CPUsPerL2; cpu < (g+1)*r.cfg.CPUsPerL2; cpu++ {
		r.l1i[cpu].drop(ba)
		r.l1d[cpu].drop(ba)
	}
}

// l2Fill inserts ba into group g's L2. Its victim leaves every L1 behind that
// L2, and is written back when it was Modified or Owned.
func (r *refHierarchy) l2Fill(g int, ba uint64, st cache.State, dirty bool) {
	if _, victim, vl := r.l2[g].fill(ba, st, dirty); vl != nil {
		if vl.state == coherence.Modified || vl.state == coherence.Owned {
			r.bus.Writebacks++
		}
		r.dropL1s(g, victim)
	}
}

// serve counts one bus data transfer of ba: from a cache when byCache, else
// from memory, unless the loaded model's intervention moves a miss with a
// clean remote copy to a cache.
func (r *refHierarchy) serve(ba uint64, byCache, anyCopy, write bool, now uint64) coherence.Source {
	if !byCache && anyCopy && r.load != nil && r.load.Intervene() {
		byCache = true
	}
	src := coherence.SrcMemory
	if byCache {
		src = coherence.SrcCache
		r.bus.C2CTransfers++
	} else {
		r.bus.MemTransfers++
		if c := r.classify(ba); c >= 0 && c < len(r.missClass) {
			r.missClass[c]++
		}
	}
	if r.load != nil {
		r.load.Record(now, write)
	}
	return src
}

// l2Read is a coherent load of ba by group g's L2.
func (r *refHierarchy) l2Read(g int, ba, now uint64) coherence.Source {
	if r.l2[g].touch(ba) != nil {
		r.bus.L2Hits++
		return coherence.SrcLocal
	}
	r.bus.GetS++
	byCache, anyCopy := false, false
	for o, c := range r.l2 {
		l := c.lines[ba]
		if o == g || l == nil {
			continue
		}
		anyCopy = true
		switch l.state {
		case coherence.Modified:
			byCache = true
			if r.proto == coherence.MOSI {
				l.state = coherence.Owned
			} else {
				l.state, l.dirty = coherence.Shared, false
				r.bus.Writebacks++
			}
		case coherence.Owned:
			byCache = true
		case coherence.Exclusive:
			l.state = coherence.Shared
		}
	}
	src := r.serve(ba, byCache, anyCopy, false, now)
	st := coherence.Shared
	if r.proto == coherence.MESI && !anyCopy {
		st = coherence.Exclusive
	}
	r.l2Fill(g, ba, st, false)
	return src
}

// dropRemotes removes ba from every L2 but group g's, and from the L1s
// behind them. It reports whether any copy existed and whether one was
// dirty.
func (r *refHierarchy) dropRemotes(g int, ba uint64) (anyCopy, dirty bool) {
	for o, c := range r.l2 {
		if o == g {
			continue
		}
		if l := c.drop(ba); l != nil {
			anyCopy, dirty = true, dirty || l.dirty
			r.dropL1s(o, ba)
			r.bus.Invalidations++
		}
	}
	return anyCopy, dirty
}

// l2Write is a coherent store of ba by group g's L2.
func (r *refHierarchy) l2Write(g int, ba, now uint64) coherence.Source {
	if l := r.l2[g].touch(ba); l != nil {
		switch l.state {
		case coherence.Modified, coherence.Exclusive:
			r.bus.L2Hits++
			l.state, l.dirty = coherence.Modified, true
			return coherence.SrcLocal
		}
		r.bus.Upgrades++
		r.dropRemotes(g, ba)
		l.state, l.dirty = coherence.Modified, true
		return coherence.SrcUpgrade
	}
	r.bus.GetM++
	anyCopy, dirty := r.dropRemotes(g, ba)
	src := r.serve(ba, dirty, anyCopy, true, now)
	r.l2Fill(g, ba, coherence.Modified, true)
	return src
}

// result charges src's latency; under the loaded model, the curve's
// multiplier at the window's utilization, rounded to the nearest cycle.
func (r *refHierarchy) result(src coherence.Source) Result {
	loaded := func(base uint64, knots []CurveKnot, extra *uint64) uint64 {
		if r.load == nil {
			return base
		}
		s := uint64(float64(base)*curveLookup(knots, r.load.Utilization()) + 0.5)
		*extra += s - base
		return s
	}
	lat := r.cfg.Lat
	switch src {
	case coherence.SrcLocal:
		return Result{Stall: lat.L2Hit, Class: StallL2Hit}
	case coherence.SrcUpgrade:
		return Result{Stall: lat.Upgrade, Class: StallL2Hit}
	case coherence.SrcCache:
		return Result{Stall: loaded(lat.C2C, r.lc.C2CCurve, &r.c2cExtra), Class: StallC2C}
	}
	return Result{Stall: loaded(lat.Memory, r.lc.MemCurve, &r.memExtra), Class: StallMem}
}

// moved reports whether a transfer of src moved data over the bus.
func moved(src coherence.Source) bool {
	return src == coherence.SrcCache || src == coherence.SrcMemory
}

func (r *refHierarchy) fetch(cpu int, addr mem.Addr, now uint64) Result {
	c := r.l1i[cpu]
	ba := c.block(addr)
	c.stats.Fetches++
	if c.touch(ba) != nil {
		return Result{}
	}
	c.stats.FetchMisses++
	src := r.l2Read(cpu/r.cfg.CPUsPerL2, ba, now)
	if moved(src) {
		r.fetchMisses++
	}
	c.fill(ba, l1Shared, false)
	return r.result(src)
}

func (r *refHierarchy) tlbStall(cpu int, addr mem.Addr) uint64 {
	if r.dtlb[cpu] == nil {
		return 0
	}
	return r.dtlb[cpu].Access(addr)
}

func (r *refHierarchy) read(cpu int, addr mem.Addr, now uint64) Result {
	ts := r.tlbStall(cpu, addr)
	c := r.l1d[cpu]
	ba := c.block(addr)
	c.stats.Reads++
	if c.touch(ba) != nil {
		return Result{TLBStall: ts}
	}
	c.stats.ReadMisses++
	src := r.l2Read(cpu/r.cfg.CPUsPerL2, ba, now)
	if moved(src) {
		r.dataMisses++
	}
	c.fill(ba, l1Shared, false)
	res := r.result(src)
	res.TLBStall = ts
	return res
}

// write is a store: it first drops the block from the data L1s of the other
// processors behind the same L2, then needs a Modified L1 line, which a
// Shared one or a miss gets from the L2.
func (r *refHierarchy) write(cpu int, addr mem.Addr, now uint64) Result {
	ts := r.tlbStall(cpu, addr)
	c := r.l1d[cpu]
	ba := c.block(addr)
	c.stats.Writes++
	g := cpu / r.cfg.CPUsPerL2
	for o := g * r.cfg.CPUsPerL2; o < (g+1)*r.cfg.CPUsPerL2; o++ {
		if o != cpu {
			r.l1d[o].drop(ba)
		}
	}
	l := c.touch(ba)
	if l != nil && l.state == l1Modified {
		l.dirty = true
		return Result{TLBStall: ts}
	}
	if l == nil {
		c.stats.WriteMisses++
	}
	src := r.l2Write(g, ba, now)
	if moved(src) {
		r.dataMisses++
	}
	if l == nil {
		c.fill(ba, l1Modified, true)
	} else {
		l.state, l.dirty = l1Modified, true
	}
	res := r.result(src)
	res.TLBStall = ts
	return res
}

func (r *refHierarchy) resetStats() {
	for _, c := range slices.Concat(r.l1i, r.l1d, r.l2) {
		c.stats = cache.Stats{}
	}
	for _, t := range r.dtlb {
		if t != nil {
			t.ResetStats()
		}
	}
	r.bus, r.missClass = coherence.Stats{}, [8]uint64{}
	r.dataMisses, r.fetchMisses = 0, 0
	r.memExtra, r.c2cExtra = 0, 0
	if r.load != nil {
		r.load.ResetInterventions()
	}
}

// compareStats fails on the first counter h and r disagree on: every
// cache's Stats, the bus Stats and miss classes, the hierarchy's miss
// counts and the loaded model's snapshot.
func compareStats(t *testing.T, h *Hierarchy, r *refHierarchy, what string) {
	t.Helper()
	for cpu := range r.l1i {
		if got, want := h.L1I(cpu).Stats, r.l1i[cpu].stats; got != want {
			t.Fatalf("%s: L1I %d Stats %+v, reference %+v", what, cpu, got, want)
		}
		if got, want := h.L1D(cpu).Stats, r.l1d[cpu].stats; got != want {
			t.Fatalf("%s: L1D %d Stats %+v, reference %+v", what, cpu, got, want)
		}
	}
	for g := range r.l2 {
		if got, want := h.l2(g).Stats, r.l2[g].stats; got != want {
			t.Fatalf("%s: L2 %d Stats %+v, reference %+v", what, g, got, want)
		}
	}
	if got := h.Bus().Stats; got != r.bus {
		t.Fatalf("%s: bus Stats %+v, reference %+v", what, got, r.bus)
	}
	if got := h.Bus().MissClass; got != r.missClass {
		t.Fatalf("%s: MissClass %v, reference %v", what, got, r.missClass)
	}
	if h.DataMisses != r.dataMisses || h.FetchMisses != r.fetchMisses {
		t.Fatalf("%s: data/fetch misses %d/%d, reference %d/%d",
			what, h.DataMisses, h.FetchMisses, r.dataMisses, r.fetchMisses)
	}
	snap, ok := h.LoadSnapshot()
	if ok != (r.load != nil) {
		t.Fatalf("%s: loaded snapshot %v, reference model loaded %v", what, ok, r.load != nil)
	}
	if ok && (snap.Util != r.load.Utilization() || snap.MemExtraCycles != r.memExtra ||
		snap.C2CExtraCycles != r.c2cExtra || snap.Interventions != r.load.Interventions()) {
		t.Fatalf("%s: loaded snapshot %+v, reference util %v extra %d/%d interventions %d",
			what, snap, r.load.Utilization(), r.memExtra, r.c2cExtra, r.load.Interventions())
	}
}

// l2 returns group g's L2.
func (h *Hierarchy) l2(g int) *cache.Cache { return h.ports[g*h.cfg.CPUsPerL2].node.L2() }

// compareContents fails unless every cache holds the same lines, in the same
// states and dirty, as its reference. Every line either side can hold is one
// of the blocks the stream touched.
func compareContents(t *testing.T, h *Hierarchy, r *refHierarchy, touched map[uint64]bool) {
	t.Helper()
	check := func(name string, c *cache.Cache, rc *refCache) {
		for ba := range touched {
			l, rl := c.Probe(ba), rc.lines[ba]
			switch {
			case (l == nil) != (rl == nil):
				t.Fatalf("%s: block %#x held %v, by the reference %v", name, ba, l != nil, rl != nil)
			case l != nil && (l.State() != rl.state || l.Dirty() != rl.dirty):
				t.Fatalf("%s: block %#x state %d dirty %v, reference %d dirty %v",
					name, ba, l.State(), l.Dirty(), rl.state, rl.dirty)
			}
		}
	}
	for cpu := range r.l1i {
		check(fmt.Sprintf("L1I %d", cpu), h.L1I(cpu), r.l1i[cpu])
		check(fmt.Sprintf("L1D %d", cpu), h.L1D(cpu), r.l1d[cpu])
	}
	for g := range r.l2 {
		check(fmt.Sprintf("L2 %d", g), h.l2(g), r.l2[g])
	}
}

// refGeometries are small L1I, L1D and L2 shapes that evict constantly:
// 2 to 8 sets, direct-mapped to 8-way, 16 to 64 B blocks.
var refGeometries = [][3]cache.Config{
	{{SizeBytes: 256, Assoc: 2, BlockBytes: 64}, {SizeBytes: 256, Assoc: 2, BlockBytes: 64}, {SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64}},
	{{SizeBytes: 128, Assoc: 1, BlockBytes: 32}, {SizeBytes: 128, Assoc: 1, BlockBytes: 32}, {SizeBytes: 512, Assoc: 4, BlockBytes: 32}},
	{{SizeBytes: 512, Assoc: 4, BlockBytes: 64}, {SizeBytes: 256, Assoc: 1, BlockBytes: 64}, {SizeBytes: 2 << 10, Assoc: 4, BlockBytes: 64}},
	{{SizeBytes: 128, Assoc: 2, BlockBytes: 16}, {SizeBytes: 128, Assoc: 2, BlockBytes: 16}, {SizeBytes: 1 << 10, Assoc: 8, BlockBytes: 16}},
}

// checkHierarchyAgainstReference builds a Hierarchy and a refHierarchy from
// data and drives both with the same stream. data[0] picks the shape:
// CPUsPerL2 from {1, 2, 4, 8} in its low two bits, the rest the number of L2s,
// for 1 to 16 processors. data[1] picks the loaded model (bit 0), a data TLB
// (bit 1), the protocol (bits 2-3) and the geometry (bits 4-5). Each byte
// pair after that is one access at a time 8 cycles past the last: the first
// byte's low four bits pick the processor, the next two fetch, read or
// write (3 also writes) and the top two a byte offset in the block; the
// second byte picks one of 64 blocks (bits 0-5), the set-aliasing copy of
// it 64 KB up (bit 6) and sets the narrowest cache's highest tag bit (bit 7).
// A first byte of 0xff resets every statistic instead. After every access
// the results and every counter must agree, and at the end every cache's
// contents.
func checkHierarchyAgainstReference(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	perL2 := 1 << (data[0] & 3)
	cpus := perL2 * (1 + int(data[0]>>2)%(16/perL2))
	geo := refGeometries[data[1]>>4&3]
	cfg := DefaultConfig(cpus)
	cfg.CPUsPerL2 = perL2
	cfg.L1I, cfg.L1D, cfg.L2 = geo[0], geo[1], geo[2]
	cfg.L1I.Name, cfg.L1D.Name, cfg.L2.Name = "L1I", "L1D", "L2"
	cfg.DTLB = data[1]&2 != 0
	if data[1]&1 != 0 {
		// A short window, so a few hundred accesses sweep the whole curve.
		cfg.Model, cfg.Loaded = MemLoaded, LoadedConfig{WindowCycles: 2048, Buckets: 4}
	}
	proto := coherence.Protocol(data[1] >> 2 & 3 % 3)
	classify := func(ba uint64) int { return int(ba/64%10) - 1 } // -1 to 8: both ends out of range

	h := New(cfg)
	h.Bus().Protocol = proto
	h.Bus().ClassifyAddr = classify
	r := newRefHierarchy(cfg, proto, classify)

	block := uint64(cfg.L2.BlockBytes)
	var topBit uint64 = 1 << 40 // the highest tag bit of the narrowest cache here
	for _, c := range []cache.Config{cfg.L1I, cfg.L1D, cfg.L2} {
		topBit = min(topBit, uint64(c.SizeBytes/c.Assoc)<<27)
	}
	touched := map[uint64]bool{}
	for i, op := 0, data[2:]; len(op) >= 2; i, op = i+1, op[2:] {
		if op[0] == 0xff {
			h.ResetStats()
			r.resetStats()
			compareStats(t, h, r, fmt.Sprintf("access %d: ResetStats", i))
			continue
		}
		cpu := int(op[0]&15) % cpus
		ba := 0x100000 + uint64(op[1]&63)*block
		if op[1]&64 != 0 {
			ba += 64 << 10
		}
		if op[1]&128 != 0 {
			ba |= topBit
		}
		addr := ba + uint64(op[0]>>6)*block/4
		touched[ba] = true
		now := uint64(i) * 8
		var got, want Result
		var what string
		switch op[0] >> 4 & 3 {
		case 0:
			what = "Fetch"
			got, want = h.Fetch(cpu, addr, now), r.fetch(cpu, addr, now)
		case 1:
			what = "Read"
			got, want = h.Read(cpu, addr, now), r.read(cpu, addr, now)
		default:
			what = "Write"
			got, want = h.Write(cpu, addr, now), r.write(cpu, addr, now)
		}
		what = fmt.Sprintf("%v, %v, %d CPUs by %d: access %d: %s(%d, %#x)", cfg.L2, proto, cpus, perL2, i, what, cpu, addr)
		if got != want {
			t.Fatalf("%s = %+v, reference %+v", what, got, want)
		}
		compareStats(t, h, r, what)
	}
	compareContents(t, h, r, touched)
}

// FuzzHierarchyMatchesReference is checkHierarchyAgainstReference on
// arbitrary input. The generated seeds cover every sharing shape, both
// memory models, all three protocols and the data TLB on streams long
// enough to evict from every cache.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add([]byte{0x3d, 0x00, 0x00, 0x01, 0x21, 0x01, 0x11, 0x01, 0x20, 0x41, 0x10, 0x01})
	seed := uint64(1)
	for i, shape := range []byte{0x00, 0x3c, 0x05, 0x1d, 0x02, 0x0e, 0x03, 0x07, 0x3d, 0x01} {
		data := []byte{shape, byte(i*0x15) ^ byte(i>>1)}
		for len(data) < 2+2*600 {
			seed = seed*6364136223846793005 + 1442695040888963407
			data = append(data, byte(seed>>56), byte(seed>>48))
		}
		f.Add(data)
	}
	f.Fuzz(checkHierarchyAgainstReference)
}
