package attr

import (
	"encoding/json"
	"slices"
	"testing"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.RecordGetS(0x1000, 0, true, 0)
	c.RecordGetM(0x1000, 1, false, 0)
	c.RecordUpgrade(0x1000, 0)
	c.RecordWriteback(0x1000, -1)
	c.RecordInval(0x1000, 2)
	c.Touch(0x1000)
	c.CloseEpoch(nil, "final")
	c.Reset()
	if c.Len() != 0 || c.Events() != 0 || c.EpochCount() != 0 || c.Shares() != nil || c.Timeline() != nil {
		t.Error("nil collector reported non-zero state")
	}
	if r := c.BuildReport(5); r != nil {
		t.Error("nil collector built a report")
	}
}

// classify drives one line through a scripted access sequence and returns
// its pattern.
func classify(t *testing.T, script func(c *Collector)) Pattern {
	t.Helper()
	c := NewCollector(Options{Exact: true})
	script(c)
	r := c.BuildReport(1)
	if len(r.HotLines) != 1 {
		t.Fatalf("script touched %d lines, want 1", len(r.HotLines))
	}
	for _, name := range PatternNames() {
		if r.HotLines[0].Pattern == name {
			for p := Pattern(0); p < numPatterns; p++ {
				if p.String() == name {
					return p
				}
			}
		}
	}
	t.Fatalf("unknown pattern %q", r.HotLines[0].Pattern)
	return 0
}

func TestClassifier(t *testing.T) {
	const ba = 0x4040

	// Never written: read-only, however many nodes read it.
	if p := classify(t, func(c *Collector) {
		for n := 0; n < 4; n++ {
			c.RecordGetS(ba, n, false, 0)
		}
	}); p != ReadOnly {
		t.Errorf("all-reader line classified %v, want %v", p, ReadOnly)
	}

	// One node reads and writes, nobody else: private.
	if p := classify(t, func(c *Collector) {
		c.RecordGetS(ba, 2, false, 0)
		c.RecordGetM(ba, 2, false, 0)
		c.RecordUpgrade(ba, 2)
	}); p != Private {
		t.Errorf("single-node line classified %v, want %v", p, Private)
	}

	// One writer, distinct readers: producer-consumer.
	if p := classify(t, func(c *Collector) {
		for i := 0; i < 3; i++ {
			c.RecordGetM(ba, 0, false, 0)
			c.RecordGetS(ba, 1, true, 0)
			c.RecordGetS(ba, 2, true, 0)
		}
	}); p != ProducerConsumer {
		t.Errorf("one-writer line classified %v, want %v", p, ProducerConsumer)
	}

	// Each node reads the line then takes ownership: migratory.
	if p := classify(t, func(c *Collector) {
		for i := 0; i < 4; i++ {
			n := i % 2
			c.RecordGetS(ba, n, true, 0)
			c.RecordUpgrade(ba, n)
		}
	}); p != Migratory {
		t.Errorf("read-modify-write handoffs classified %v, want %v", p, Migratory)
	}

	// Ownership bounces write-to-write: ping-pong.
	if p := classify(t, func(c *Collector) {
		for i := 0; i < 6; i++ {
			c.RecordGetM(ba, i%2, true, 0)
		}
	}); p != PingPong {
		t.Errorf("write-write handoffs classified %v, want %v", p, PingPong)
	}
}

// sampled returns a sampled collector whose table is capped at n lines
// instead of DefaultMaxLines.
func sampled(n int) *Collector {
	c := NewCollector(Options{})
	c.maxLines = n
	return c
}

func TestSamplingBoundsTableAndKeepsSurvivorHistory(t *testing.T) {
	const maxLines = 256
	c := sampled(maxLines)
	// Far more distinct lines than the cap; two rounds so survivors have
	// history from both.
	for round := 0; round < 2; round++ {
		for i := 0; i < 8*maxLines; i++ {
			c.RecordGetS(uint64(i)*64, 0, false, 0)
		}
	}
	if c.Len() >= maxLines {
		t.Fatalf("sampled table holds %d lines, cap %d", c.Len(), maxLines)
	}
	if c.Resamples() == 0 || c.shift == 0 {
		t.Fatal("table exceeded its cap without resampling")
	}
	// Nested masks: every surviving line must have complete history — both
	// rounds' GetS — because a line sampled at the final shift was sampled
	// at every coarser shift too.
	r := c.BuildReport(c.Len())
	for _, h := range r.HotLines {
		if h.GetS != 2 {
			t.Errorf("survivor %#x has %d GetS, want 2 (incomplete history)", h.Addr, h.GetS)
		}
	}
	if r.ScaleFactor != 1<<c.shift {
		t.Errorf("scale factor %d != 2^shift %d", r.ScaleFactor, uint64(1)<<c.shift)
	}
}

func TestExactModeNeverResamples(t *testing.T) {
	c := NewCollector(Options{Exact: true})
	c.maxLines = 16
	for i := 0; i < 4096; i++ {
		c.RecordGetS(uint64(i)*64, 0, false, 0)
	}
	if c.Len() != 4096 {
		t.Fatalf("exact mode tracked %d of 4096 lines", c.Len())
	}
	if c.Resamples() != 0 || c.shift != 0 {
		t.Fatal("exact mode resampled")
	}
}

func TestEpochRollupAndResolverChain(t *testing.T) {
	c := NewCollector(Options{Exact: true})
	c.Fallback = func(addr uint64) (string, bool) {
		if addr >= 0x10000 {
			return "region.code", true
		}
		return "", false
	}
	heapRes := func(addr uint64) (string, bool) {
		if addr < 0x8000 {
			return "site.a", true
		}
		return "", false
	}

	c.RecordGetM(0x1000, 0, false, 0)  // site.a
	c.RecordGetS(0x20000, 1, false, 0) // region.code
	c.RecordGetS(0x9000, 1, false, 0)  // neither → unattributed
	c.CloseEpoch(heapRes, "minor")

	// Second epoch: the same heap line now maps elsewhere (post-GC layout).
	c.RecordGetS(0x1000, 1, true, 0)
	c.CloseEpoch(func(addr uint64) (string, bool) { return "site.b", true }, "final")

	r := c.BuildReport(10)
	want := map[string]Counts{
		"site.a":       {GetM: 1},
		"site.b":       {GetS: 1, C2C: 1},
		"region.code":  {GetS: 1},
		"unattributed": {GetS: 1},
	}
	got := map[string]Counts{}
	for _, o := range r.HotObjects {
		got[o.Label] = o.Counts
	}
	for label, w := range want {
		if got[label] != w {
			t.Errorf("site %q rolled up %+v, want %+v", label, got[label], w)
		}
	}
	if r.Epochs != 2 {
		t.Errorf("report has %d epochs, want 2", r.Epochs)
	}
	if len(r.EpochMix) != 2 || r.EpochMix[0].Trigger != "minor" || r.EpochMix[1].Trigger != "final" {
		t.Errorf("epoch summaries wrong: %+v", r.EpochMix)
	}
	// Only the line active in epoch 2 appears in its mix.
	if n := len(r.EpochMix[1].Mix); n != 1 {
		t.Errorf("final epoch mix has %d patterns, want 1", n)
	}
}

func TestReportDeterministic(t *testing.T) {
	build := func() []byte {
		c := NewCollector(Options{Exact: true})
		for i := 0; i < 500; i++ {
			ba := uint64(i%97) * 64
			c.RecordGetS(ba, i%4, i%3 == 0, 0)
			if i%2 == 0 {
				c.RecordGetM(ba, (i+1)%4, false, 0)
			}
		}
		c.CloseEpoch(nil, "final")
		buf, err := json.Marshal(c.BuildReport(25))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("identical event streams marshalled to different report bytes")
	}
}

func TestResetKeepsShiftDropsState(t *testing.T) {
	c := sampled(64)
	for i := 0; i < 1024; i++ {
		c.RecordGetS(uint64(i)*64, 0, false, 0)
	}
	shift := c.shift
	if shift == 0 {
		t.Fatal("test needs an adapted shift")
	}
	c.CloseEpoch(nil, "minor")
	c.Reset()
	if c.Len() != 0 || c.Events() != 0 || c.EpochCount() != 0 {
		t.Error("Reset left state behind")
	}
	if c.shift != shift {
		t.Errorf("Reset changed the sample shift: %d → %d", shift, c.shift)
	}
}

// TestTouchSharesTimeline: in exact mode Shares lists every touched line's
// C2C transfers hottest first, and Timeline bins the transfers by time.
// Touched-only lines, and Touch on a sampled collector, leave everything a
// report reads unchanged.
func TestTouchSharesTimeline(t *testing.T) {
	const hot = 0x40000
	drive := func(exact, touch bool) *Collector {
		c := sampled(16)
		if exact {
			c = NewCollector(Options{Exact: true})
		}
		c.opt.TimelineBin = 100
		for i := uint64(0); i < 64; i++ {
			ba := i * 64
			if touch {
				c.Touch(ba)
				c.Touch(hot)
				c.Touch(ba + 1000*64) // touched, never a bus event
			}
			c.RecordGetS(ba, int(i%4), i%8 == 0, 100*i)
			c.RecordGetM(hot, int(i%2), i%2 == 1, 100*i)
		}
		c.CloseEpoch(nil, "final")
		return c
	}
	report := func(c *Collector) string {
		buf, err := json.Marshal(c.BuildReport(25))
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	c := drive(true, true)
	wantShares := []uint64{32, 1, 1, 1, 1, 1, 1, 1, 1}
	wantShares = append(wantShares, make([]uint64, 120)...)
	if got := c.Shares(); !slices.Equal(got, wantShares) {
		t.Errorf("Shares = %v, want %v", got, wantShares)
	}
	var wantBins []uint64
	for i := 0; i < 64; i++ {
		wantBins = append(wantBins, uint64(i%2)) // the hot line's GetM
		if i%8 == 0 {
			wantBins[i]++
		}
	}
	if got := c.Timeline(); !slices.Equal(got, wantBins) {
		t.Errorf("Timeline = %v, want %v", got, wantBins)
	}

	for _, exact := range []bool{true, false} {
		touched, plain := drive(exact, true), drive(exact, false)
		if touched.Len() != plain.Len() || touched.Events() != plain.Events() ||
			touched.BuildReport(1).Totals != plain.BuildReport(1).Totals || report(touched) != report(plain) {
			t.Errorf("exact=%v: Touch changed the tracked lines or the report", exact)
		}
		if !slices.Equal(touched.Timeline(), wantBins) {
			t.Errorf("exact=%v: Timeline = %v, want every transfer %v", exact, touched.Timeline(), wantBins)
		}
	}
	if n := len(drive(false, true).Shares()); n != 0 {
		t.Errorf("a sampled collector has %d touched lines, want 0", n)
	}

	c.Reset()
	if len(c.Shares()) != 0 || c.Timeline() != nil {
		t.Error("Reset kept touched lines or timeline bins")
	}
}
