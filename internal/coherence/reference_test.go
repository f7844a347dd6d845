package coherence

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs/attr"
	"repro/internal/simrand"
)

// refBus is the reference model Bus is checked against: the brute-force
// snooping bus the duplicate-tag filter replaced. Every GetS, GetM and
// upgrade probes every other node's L2 in ascending node order. It keeps the
// observables the equivalence tests compare — Stats, attribution events
// (with the touched lines and the C2C timeline) and invalidation callbacks
// — and nothing else: no loaded-latency model, tracer, sanitizer or address
// classifier. It shares no snoop code with Bus, so a filter bug cannot hide
// in its own reference.
type refBus struct {
	proto Protocol
	l2    []*cache.Cache
	onInv []func(ba uint64)
	Stats Stats
	attr  *attr.Collector
}

func (b *refBus) addNode(l2 *cache.Cache, onInvalidate func(ba uint64)) {
	b.l2 = append(b.l2, l2)
	b.onInv = append(b.onInv, onInvalidate)
}

func (b *refBus) notify(id int, ba uint64) {
	if b.onInv[id] != nil {
		b.onInv[id](ba)
	}
}

// read is a coherent load by node id.
func (b *refBus) read(id int, addr mem.Addr, now uint64) Source {
	ba := b.l2[id].BlockAddr(addr)
	b.attr.Touch(ba)
	if b.l2[id].ProbeTouch(ba) != nil {
		b.Stats.L2Hits++
		return SrcLocal
	}
	b.Stats.GetS++
	src := SrcMemory
	anyCopy := false
	for o, other := range b.l2 {
		if o == id {
			continue
		}
		if l := other.Probe(ba); l != nil {
			anyCopy = true
			if b.snoopGetS(l) {
				src = SrcCache
			}
		}
	}
	if src == SrcCache {
		b.Stats.C2CTransfers++
	} else {
		b.Stats.MemTransfers++
	}
	b.attr.RecordGetS(ba, id, src == SrcCache, now)
	st := Shared
	if b.proto == MESI && !anyCopy {
		st = Exclusive
	}
	b.insert(id, ba, st)
	return src
}

// snoopGetS applies a GetS snoop to one remote copy, returning whether that
// cache supplies the data.
func (b *refBus) snoopGetS(l *cache.Line) bool {
	switch l.State() {
	case Modified:
		if b.proto == MOSI {
			l.SetState(Owned)
		} else {
			l.SetState(Shared)
			l.SetDirty(false)
			b.Stats.Writebacks++
			b.attr.RecordWriteback(l.Tag(), -1)
		}
		return true
	case Owned:
		return true
	case Exclusive:
		l.SetState(Shared)
	}
	return false
}

// write is a coherent store by node id.
func (b *refBus) write(id int, addr mem.Addr, now uint64) Source {
	ba := b.l2[id].BlockAddr(addr)
	b.attr.Touch(ba)
	if l := b.l2[id].ProbeTouch(ba); l != nil {
		switch l.State() {
		case Modified:
			b.Stats.L2Hits++
			l.SetDirty(true)
			return SrcLocal
		case Exclusive:
			b.Stats.L2Hits++
			l.SetState(Modified)
			l.SetDirty(true)
			return SrcLocal
		case Shared, Owned:
			b.Stats.Upgrades++
			for o, other := range b.l2 {
				if o == id {
					continue
				}
				if _, present := other.Invalidate(ba); present {
					b.notify(o, ba)
					b.Stats.Invalidations++
					b.attr.RecordInval(ba, o)
				}
			}
			l.SetState(Modified)
			l.SetDirty(true)
			b.attr.RecordUpgrade(ba, id)
			return SrcUpgrade
		}
	}
	b.Stats.GetM++
	src := SrcMemory
	for o, other := range b.l2 {
		if o == id {
			continue
		}
		if l := other.Probe(ba); l != nil {
			if l.State() == Modified || l.State() == Owned {
				src = SrcCache
			}
			other.Invalidate(ba)
			b.notify(o, ba)
			b.Stats.Invalidations++
			b.attr.RecordInval(ba, o)
		}
	}
	if src == SrcCache {
		b.Stats.C2CTransfers++
	} else {
		b.Stats.MemTransfers++
	}
	b.attr.RecordGetM(ba, id, src == SrcCache, now)
	b.insert(id, ba, Modified).SetDirty(true)
	return src
}

// insert fills ba into node id's L2, writing back a dirty victim and
// notifying the node of the eviction.
func (b *refBus) insert(id int, ba uint64, st cache.State) *cache.Line {
	l, victim, had := b.l2[id].Allocate(ba, st)
	if !had {
		return l
	}
	if victim.State() == Modified || victim.State() == Owned {
		b.Stats.Writebacks++
		b.attr.RecordWriteback(victim.Tag(), id)
	}
	b.notify(id, victim.Tag())
	return l
}

// busPair drives a Bus and a refBus with identical traffic; every
// observable of the two must agree. Both carry an exact attribution
// collector with a 1000-cycle timeline.
type busPair struct {
	bus         *Bus
	ref         *refBus
	nodes       []*Node
	inv, refInv []int // invalidation-callback counts per node
}

func newBusPair(proto Protocol, nodes int, geo cache.Config) *busPair {
	p := &busPair{
		bus: NewBus(), ref: &refBus{proto: proto},
		inv: make([]int, nodes), refInv: make([]int, nodes),
	}
	p.bus.Protocol = proto
	p.bus.Attr = attr.NewCollector(attr.Options{Exact: true, TimelineBin: 1000})
	p.ref.attr = attr.NewCollector(attr.Options{Exact: true, TimelineBin: 1000})
	for i := 0; i < nodes; i++ {
		p.nodes = append(p.nodes, p.bus.AddNode(cache.New(geo), func(ba uint64) { p.inv[i]++ }))
		p.ref.addNode(cache.New(geo), func(ba uint64) { p.refInv[i]++ })
	}
	return p
}

// access applies access i — a load or store of block ba by node n — to both
// buses and fails when they report different data sources.
func (p *busPair) access(t *testing.T, i, n int, ba uint64, write bool) {
	t.Helper()
	a, now := mem.Addr(ba), uint64(i)
	op, busOp, refOp := "Read", p.nodes[n].Read, p.ref.read
	if write {
		op, busOp, refOp = "Write", p.nodes[n].Write, p.ref.write
	}
	if got, want := busOp(a, now), refOp(n, a, now); got != want {
		t.Fatalf("access %d: %s(%#x) by node %d: bus src %v, reference src %v", i, op, ba, n, got, want)
	}
}

// run drives both buses with the same seeded traffic: a mix of mostly-read
// and write-heavy blocks across a working set several times the cache size,
// so the stream exercises GetS, GetM, upgrades, evictions of all states,
// and wide read-sharing.
func (p *busPair) run(t *testing.T, seed uint64, accesses int) {
	t.Helper()
	rng := simrand.New(seed)
	geo := p.nodes[0].l2.Config()
	blocks := uint64(geo.SizeBytes) / uint64(geo.BlockBytes) * 3
	for i := 0; i < accesses; i++ {
		n := rng.Intn(len(p.nodes))
		ba := uint64(rng.Int63n(int64(blocks))) * uint64(geo.BlockBytes)
		p.access(t, i, n, ba, rng.Bool(0.3))
	}
}

// verify compares Stats, the attribution sums and event counts, per-line
// transfers, timeline, invalidation callbacks, and the final state and
// dirty bit of every block in every cache.
func (p *busPair) verify(t *testing.T) {
	t.Helper()
	if p.bus.Stats != p.ref.Stats {
		t.Errorf("stats diverge:\nbus       %+v\nreference %+v", p.bus.Stats, p.ref.Stats)
	}
	if got, want := p.bus.Attr.SumCounts(), p.ref.attr.SumCounts(); got != want {
		t.Errorf("attribution sums diverge:\nbus       %+v\nreference %+v", got, want)
	}
	if got, want := p.bus.Attr.Events(), p.ref.attr.Events(); got != want {
		t.Errorf("event counts diverge: bus %d, reference %d", got, want)
	}
	if !slices.Equal(p.bus.Attr.Shares(), p.ref.attr.Shares()) {
		t.Error("per-line transfers diverge")
	}
	fb, rb := p.bus.Attr.Timeline(), p.ref.attr.Timeline()
	if len(fb) != len(rb) {
		t.Fatalf("timeline bin counts diverge: %d vs %d", len(fb), len(rb))
	}
	for i := range fb {
		if fb[i] != rb[i] {
			t.Errorf("timeline bin %d diverges: %v vs %v", i, fb[i], rb[i])
		}
	}
	for i := range p.inv {
		if p.inv[i] != p.refInv[i] {
			t.Errorf("node %d invalidation callbacks diverge: %d vs %d", i, p.inv[i], p.refInv[i])
		}
	}
	for i, n := range p.nodes {
		fl := map[uint64]cache.Line{}
		n.l2.VisitLines(func(l *cache.Line) { fl[l.Tag()] = *l })
		count := 0
		p.ref.l2[i].VisitLines(func(l *cache.Line) {
			count++
			got, ok := fl[l.Tag()]
			if !ok {
				t.Errorf("node %d: block %#x in reference cache only", i, l.Tag())
				return
			}
			if got.State() != l.State() || got.Dirty() != l.Dirty() {
				t.Errorf("node %d block %#x: bus (%s dirty=%v) vs reference (%s dirty=%v)",
					i, l.Tag(), StateName(got.State()), got.Dirty(), StateName(l.State()), l.Dirty())
			}
		})
		if count != len(fl) {
			t.Errorf("node %d: bus cache holds %d blocks, reference holds %d", i, len(fl), count)
		}
	}
}

// FuzzBusMatchesReference drives a sanitized Bus and the refBus with fuzzed
// traffic. data[0] picks the protocol, data[1] the node count (1-8) and
// data[2] the L2 geometry; each following byte pair is one access: the
// first byte's low three bits pick the node and bit 3 makes it a store, the
// second byte's low six bits pick one of 64 blocks. The tiny caches force
// evictions of every state and the small block range forces sharing.
func FuzzBusMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 9, 1, 1, 1, 8, 2})
	f.Add([]byte{2, 3, 1, 0, 5, 1, 5, 2, 5, 11, 5, 3, 5, 8, 37})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		geos := []cache.Config{
			{Name: "L2", SizeBytes: 512, Assoc: 1, BlockBytes: 64},
			{Name: "L2", SizeBytes: 1 << 10, Assoc: 2, BlockBytes: 64},
			{Name: "L2", SizeBytes: 1 << 10, Assoc: 4, BlockBytes: 32},
			{Name: "L2", SizeBytes: 2 << 10, Assoc: 8, BlockBytes: 64},
		}
		nodes := 1 + int(data[1])%8
		geo := geos[int(data[2])%len(geos)]
		p := newBusPair(Protocol(data[0]%3), nodes, geo)
		p.bus.Sanitize = true
		for i, op := 0, data[3:]; len(op) >= 2; i, op = i+1, op[2:] {
			ba := uint64(op[1]&63) * uint64(geo.BlockBytes)
			p.access(t, i, int(op[0]&7)%nodes, ba, op[0]&8 != 0)
		}
		p.verify(t)
	})
}
