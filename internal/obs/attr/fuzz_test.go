package attr

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"testing"
)

// refLine is the reference collector's per-line state: full-width counts,
// 64-bit masks and the label as a string.
type refLine struct {
	addr                   uint64
	total, epoch           Counts
	readers, writers       uint64
	lastWriter, lastReader int
	lastOp                 uint8
	migrations, pingpongs  uint64
	label                  string
}

func (e *refLine) classify() Pattern {
	switch {
	case e.total.GetM+e.total.Upgrades == 0:
		return ReadOnly
	case bits.OnesCount64(e.writers) <= 1 && e.readers&^e.writers != 0:
		return ProducerConsumer
	case bits.OnesCount64(e.writers) <= 1:
		return Private
	case e.migrations >= e.pingpongs:
		return Migratory
	default:
		return PingPong
	}
}

// refCollector is a naive model of Collector: Go maps for the lines, the
// touched set and the site roll-ups, and a report that builds and sorts a
// row for every line before it keeps the top N.
type refCollector struct {
	exact     bool
	maxLines  int
	shift     uint
	bin       uint64
	fallback  Resolver
	lines     map[uint64]*refLine
	touched   map[uint64]bool
	timeline  []uint64
	sites     map[string]Counts
	epochs    []EpochSummary
	epochIdx  int
	truncated int
	resamples int
	events    uint64
}

func newRef(exact bool, maxLines int, bin uint64, fallback Resolver) *refCollector {
	r := &refCollector{exact: exact, maxLines: maxLines, bin: bin, fallback: fallback}
	r.Reset()
	return r
}

func (r *refCollector) Reset() {
	r.lines = map[uint64]*refLine{}
	r.touched = map[uint64]bool{}
	r.sites = map[string]Counts{}
	r.timeline, r.epochs = nil, nil
	r.epochIdx, r.truncated, r.events = 0, 0, 0
}

func (r *refCollector) inSample(ba uint64) bool {
	return r.exact || addrHash(ba)>>(64-r.shift) == 0
}

func (r *refCollector) line(ba uint64) *refLine {
	if !r.inSample(ba) {
		return nil
	}
	if e := r.lines[ba]; e != nil {
		return e
	}
	for !r.exact && len(r.lines) >= r.maxLines {
		r.shift++
		r.resamples++
		for a := range r.lines {
			if !r.inSample(a) {
				delete(r.lines, a)
			}
		}
	}
	if !r.inSample(ba) {
		return nil
	}
	e := &refLine{addr: ba, lastWriter: -1, lastReader: -1}
	r.lines[ba] = e
	return e
}

func refBit(node int) uint64 {
	if node >= 0 && node < 32 {
		return 1 << node
	}
	return 0
}

func (r *refCollector) c2c(now uint64) {
	if r.bin > 0 {
		i := int(now / r.bin)
		for len(r.timeline) <= i {
			r.timeline = append(r.timeline, 0)
		}
		r.timeline[i]++
	}
}

func (r *refCollector) read(ba uint64, node int, c2c bool, now uint64) {
	if c2c {
		r.c2c(now)
	}
	e := r.line(ba)
	if e == nil {
		return
	}
	r.events++
	e.total.GetS++
	e.epoch.GetS++
	if c2c {
		e.total.C2C++
		e.epoch.C2C++
	}
	e.readers |= refBit(node)
	e.lastReader, e.lastOp = node, opRead
}

func (r *refCollector) write(ba uint64, node int, c2c, upgrade bool, now uint64) {
	if c2c {
		r.c2c(now)
	}
	e := r.line(ba)
	if e == nil {
		return
	}
	r.events++
	if upgrade {
		e.total.Upgrades++
		e.epoch.Upgrades++
	} else {
		e.total.GetM++
		e.epoch.GetM++
	}
	if c2c {
		e.total.C2C++
		e.epoch.C2C++
	}
	e.writers |= refBit(node)
	if e.lastWriter >= 0 && e.lastWriter != node {
		if e.lastOp == opRead && e.lastReader == node {
			e.migrations++
		} else {
			e.pingpongs++
		}
	}
	e.lastWriter, e.lastOp = node, opWrite
}

func (r *refCollector) other(ba uint64, writeback bool) {
	e := r.line(ba)
	if e == nil {
		return
	}
	r.events++
	if writeback {
		e.total.Writebacks++
		e.epoch.Writebacks++
	} else {
		e.total.Invals++
		e.epoch.Invals++
	}
}

func (r *refCollector) touch(ba uint64) {
	if r.exact {
		r.touched[ba] = true
	}
}

func (r *refCollector) closeEpoch(res Resolver, trigger string) {
	mix := map[string]PatternStat{}
	for _, e := range r.lines {
		if e.epoch.Total() == 0 {
			continue
		}
		label := "unattributed"
		if l, ok := res(e.addr); ok {
			label = l
		} else if l, ok := r.fallback(e.addr); ok {
			label = l
		}
		e.label = label
		s := r.sites[label]
		s.add(e.epoch)
		r.sites[label] = s
		ps := mix[e.classify().String()]
		ps.Lines++
		ps.Events += e.epoch.Total()
		ps.C2C += e.epoch.C2C
		mix[e.classify().String()] = ps
		e.epoch = Counts{}
	}
	if len(r.epochs) < maxEpochSummaries {
		r.epochs = append(r.epochs, EpochSummary{Index: r.epochIdx, Trigger: trigger, Mix: mix})
	} else {
		r.truncated++
	}
	r.epochIdx++
}

func (r *refCollector) shares() []uint64 {
	out := []uint64{}
	for ba := range r.touched {
		var n uint64
		if e := r.lines[ba]; e != nil {
			n = e.total.C2C
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

func (r *refCollector) report(topN int) *Report {
	if topN <= 0 {
		topN = 20
	}
	rep := &Report{
		Exact: r.exact, SampleShift: r.shift, ScaleFactor: 1 << r.shift,
		LinesTracked: len(r.lines), Resamples: r.resamples, Events: r.events,
		Epochs: r.epochIdx, TruncatedEpochs: r.truncated,
		PatternMix: map[string]PatternStat{}, EpochMix: r.epochs,
	}
	lines := []HotLine{}
	siteLines := map[string]uint64{}
	for _, e := range r.lines {
		rep.Totals.add(e.total)
		p := e.classify().String()
		ps := rep.PatternMix[p]
		ps.Lines++
		ps.Events += e.total.Total()
		ps.C2C += e.total.C2C
		rep.PatternMix[p] = ps
		lines = append(lines, HotLine{Addr: e.addr, Pattern: p, Label: e.label,
			Readers: bits.OnesCount64(e.readers), Writers: bits.OnesCount64(e.writers), Counts: e.total})
		if e.label != "" {
			siteLines[e.label]++
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if ti, tj := lines[i].Total(), lines[j].Total(); ti != tj {
			return ti > tj
		}
		return lines[i].Addr < lines[j].Addr
	})
	rep.HotLines = lines[:min(topN, len(lines))]
	objs := []HotObject{}
	for label, counts := range r.sites {
		objs = append(objs, HotObject{Label: label, Lines: siteLines[label], Counts: counts})
	}
	sort.Slice(objs, func(i, j int) bool {
		if ti, tj := objs[i].Total(), objs[j].Total(); ti != tj {
			return ti > tj
		}
		return objs[i].Label < objs[j].Label
	})
	rep.HotObjects = objs[:min(topN, len(objs))]
	return rep
}

// TestBuildReportDefaultTopN: a report asked for zero or fewer rows over
// a populated table keeps the default 20, as the reference does, and the
// top-N selection asked for no rows keeps none.
func TestBuildReportDefaultTopN(t *testing.T) {
	c := NewCollector(Options{Exact: true, TimelineBin: 100})
	c.Fallback = fuzzFallback
	ref := newRef(true, 0, 100, fuzzFallback)
	for i := 0; i < 100; i++ {
		ba, node := uint64(i%40)*64, i%8
		c.RecordGetM(ba, node, i%3 == 0, uint64(i))
		ref.write(ba, node, i%3 == 0, false, uint64(i))
	}
	c.CloseEpoch(fuzzResolver(1), "final")
	ref.closeEpoch(fuzzResolver(1), "final")
	if top := c.hottest(0); top != nil {
		t.Errorf("hottest(0) = %v, want none", top)
	}
	want, _ := json.Marshal(c.BuildReport(20))
	for _, topN := range []int{0, -1} {
		got, _ := json.Marshal(c.BuildReport(topN))
		if string(got) != string(want) {
			t.Errorf("BuildReport(%d)\n got %s\nwant %s", topN, got, want)
		}
		if r, _ := json.Marshal(ref.report(topN)); string(got) != string(r) {
			t.Errorf("BuildReport(%d) differs from the reference\n got %s\nwant %s", topN, got, r)
		}
	}
}

// fuzzFallback labels every third line as a region.
func fuzzFallback(ba uint64) (string, bool) {
	if (ba>>6)%3 == 0 {
		return "region", true
	}
	return "", false
}

// fuzzResolver is one epoch's site resolver: it defers some lines to the
// fallback and resolves some to the empty label.
func fuzzResolver(salt uint8) Resolver {
	return func(ba uint64) (string, bool) {
		switch k := (ba>>6 + uint64(salt)) % 7; k {
		case 0:
			return "", false
		case 1:
			return "", true
		default:
			return fmt.Sprintf("site.%d", k), true
		}
	}
}

// Address pools: a hot pool of 64 lines that events keep hitting, and a
// wide region that one op covers 1,024 lines of at a time, so exact
// indexes grow and sampled tables resample. A stream runs at most maxOps
// ops, which keeps one execution fast.
func hotAddr(a uint8) uint64 { return uint64(a%64) * 64 }

const (
	wideBase = 1 << 24
	maxOps   = 256
)

// FuzzCollectorMatchesReference drives one event stream into a Collector
// and into refCollector, exact and sampled with a small cap, and compares
// everything a caller can read: reports at several sizes, Shares,
// Timeline and the counters. Every 4 input bytes are one op.
func FuzzCollectorMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 3, 4, 2, 1, 3, 0, 6, 0, 5, 0})
	f.Add([]byte{5, 7, 0, 0, 0, 7, 1, 1, 1, 7, 2, 1, 8, 3, 0, 0, 9, 3, 9, 1, 6, 2, 0, 0, 3, 7, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 8, 1, 0, 0, 9, 0, 4, 1, 9, 1, 200, 0, 6, 9, 0, 0, 7, 0, 0, 0, 9, 0, 4, 1, 6, 3, 0, 0})
	// Four wide regions grow the exact index past its first size, then
	// region 0 is touched again and one of its lines gains a bus event.
	f.Add([]byte{8, 0, 0, 0, 8, 1, 0, 0, 8, 2, 0, 0, 8, 3, 0, 0, 8, 0, 0, 0, 9, 0, 5, 1, 6, 0, 0, 0})
	seq := make([]byte, 0, 4*300)
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*7%11), byte(i*13), byte(i*5), byte(i))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, maxLines := range []int{0, 8} {
			exact := maxLines == 0
			c := NewCollector(Options{Exact: exact, TimelineBin: 100})
			if !exact {
				c.maxLines = maxLines
			}
			c.Fallback = fuzzFallback
			ref := newRef(exact, maxLines, 100, fuzzFallback)
			// check compares the reports at topN sizes, then the rest.
			check := func(step int, sizes ...int) {
				t.Helper()
				for _, topN := range sizes {
					got, err := json.Marshal(c.BuildReport(topN))
					if err != nil {
						t.Fatal(err)
					}
					want, _ := json.Marshal(ref.report(topN))
					if string(got) != string(want) {
						t.Fatalf("exact=%v op %d: BuildReport(%d)\n got %s\nwant %s", exact, step, topN, got, want)
					}
				}
				if got, want := c.Shares(), ref.shares(); !slices.Equal(got, want) {
					t.Fatalf("exact=%v op %d: Shares %v, want %v", exact, step, got, want)
				}
				if got, want := c.Timeline(), ref.timeline; !slices.Equal(got, want) {
					t.Fatalf("exact=%v op %d: Timeline %v, want %v", exact, step, got, want)
				}
				if c.Len() != len(ref.lines) || c.Events() != ref.events ||
					c.EpochCount() != ref.epochIdx || c.Resamples() != ref.resamples {
					t.Fatalf("exact=%v op %d: counters (%d %d %d %d), want (%d %d %d %d)", exact, step,
						c.Len(), c.Events(), c.EpochCount(), c.Resamples(),
						len(ref.lines), ref.events, ref.epochIdx, ref.resamples)
				}
			}
			for i := 0; i+4 <= min(len(data), 4*maxOps); i += 4 {
				op, a, b, x := data[i], data[i+1], data[i+2], data[i+3]
				ba, node, c2c, now := hotAddr(a), int(b%33)-1, x&1 == 1, uint64(x)*37
				switch op % 10 {
				case 0:
					c.RecordGetS(ba, node, c2c, now)
					ref.read(ba, node, c2c, now)
				case 1:
					c.RecordGetM(ba, node, c2c, now)
					ref.write(ba, node, c2c, false, now)
				case 2:
					c.RecordUpgrade(ba, node)
					ref.write(ba, node, false, true, 0)
				case 3:
					c.RecordWriteback(ba, node)
					ref.other(ba, true)
				case 4:
					c.RecordInval(ba, node)
					ref.other(ba, false)
				case 5:
					c.Touch(ba)
					ref.touch(ba)
				case 6:
					trigger := [...]string{"minor", "major", "final"}[x%3]
					c.CloseEpoch(fuzzResolver(b), trigger)
					ref.closeEpoch(fuzzResolver(b), trigger)
					check(i/4, 5)
				case 7:
					c.Reset()
					ref.Reset()
				case 8:
					base := wideBase + uint64(a)*1024*64
					for k := uint64(0); k < 1024; k++ {
						c.Touch(base + 64*k)
						ref.touch(base + 64*k)
					}
				case 9:
					wide := wideBase + (uint64(a)<<8|uint64(b))*64
					c.RecordGetS(wide, int(x%32), c2c, now)
					ref.read(wide, int(x%32), c2c, now)
				}
			}
			check(len(data)/4, -1, 0, 1, 5, 1<<20)
		}
	})
}
