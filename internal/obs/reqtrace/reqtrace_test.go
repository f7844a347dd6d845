package reqtrace

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func mkOp(tag string, business bool) *trace.Op {
	return &trace.Op{Tag: tag, Business: business}
}

func TestTracks(t *testing.T) {
	c := NewCollector(Options{})
	cases := []struct {
		op   *trace.Op
		want bool
	}{
		{mkOp("neworder", true), true},
		{mkOp("neworder.fail", false), true}, // demoted, still a request
		{mkOp("shed", false), true},
		{mkOp("os-daemon", false), false},
		{mkOp("", true), false},
		{nil, false},
	}
	for _, tc := range cases {
		if got := c.Tracks(tc.op); got != tc.want {
			t.Errorf("Tracks(%+v) = %v, want %v", tc.op, got, tc.want)
		}
	}
	var nilC *Collector
	if nilC.Tracks(mkOp("x", true)) {
		t.Error("nil collector must track nothing")
	}
}

func TestSpanLifecycleAndPhases(t *testing.T) {
	c := NewCollector(Options{IntervalCycles: 1000})
	c.Reset(100)

	s := c.Begin(mkOp("payment", true), 150)
	s.AddSplit(40, 10) // cpu, mem
	s.Add(PhaseLockWait, 25)
	s.Add(PhaseNet, 30)
	s.Add(PhaseDBQueue, 5)
	s.Add(PhaseDBService, 15)
	s.Add(PhaseGC, 20)
	c.End(s, 350) // total 200, phases sum 145, sched remainder 55

	r := c.BuildReport()
	if len(r.Classes) != 1 {
		t.Fatalf("classes = %d, want 1", len(r.Classes))
	}
	cs := r.Classes[0]
	if cs.Class != "payment" || cs.Latency.Count != 1 || cs.Latency.Max != 200 {
		t.Fatalf("bad class stats: %+v", cs)
	}
	ph := cs.Phases
	if ph.CPU != 40 || ph.MemStall != 10 || ph.LockWait != 25 || ph.Net != 30 ||
		ph.DBQueue != 5 || ph.DBService != 15 || ph.GCPause != 20 || ph.Sched != 55 {
		t.Fatalf("bad phase breakdown: %+v", ph)
	}

	// Completion at 350 with origin 100 and 1000-cycle bins lands in bin 0.
	if len(r.Intervals) != 1 || r.Intervals[0].Classes[0].Count != 1 {
		t.Fatalf("bad intervals: %+v", r.Intervals)
	}
	if r.Intervals[0].StartCycle != 100 {
		t.Fatalf("interval start = %d, want origin 100", r.Intervals[0].StartCycle)
	}

	// A nil span (untracked op) absorbs charges silently.
	var nilSpan *Span
	nilSpan.Add(PhaseCPU, 1)
	nilSpan.AddSplit(1, 1)
	c.End(nilSpan, 999)
	if got := c.BuildReport().Classes[0].Latency.Count; got != 1 {
		t.Fatalf("nil span leaked into the collector: count %d", got)
	}
}

func TestIntervalBinning(t *testing.T) {
	c := NewCollector(Options{IntervalCycles: 1000})
	c.Reset(0)
	for i, end := range []uint64{500, 999, 1000, 1500, 3500} {
		s := c.Begin(mkOp("m", true), uint64(i))
		c.End(s, end)
	}
	r := c.BuildReport()
	if len(r.Intervals) != 4 {
		t.Fatalf("intervals = %d, want 4", len(r.Intervals))
	}
	counts := []uint64{2, 2, 0, 1}
	for i, want := range counts {
		var got uint64
		for _, cl := range r.Intervals[i].Classes {
			got += cl.Count
		}
		if got != want {
			t.Errorf("interval %d count = %d, want %d", i, got, want)
		}
	}
}

func TestReportDeterminism(t *testing.T) {
	build := func() []byte {
		objs, err := ParseObjectives("p99<=1ms,err<=5%")
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(Options{IntervalCycles: 1000, Objectives: objs})
		// Insert classes in different orders on each run; output must sort.
		tags := []string{"zeta", "alpha", "neworder.fail", "shed", "mid"}
		for rep := 0; rep < 3; rep++ {
			for i, tag := range tags {
				s := c.Begin(mkOp(tag, !IsErrorClass(tag)), uint64(100*i))
				c.End(s, uint64(100*i+50+rep*400))
			}
		}
		return c.ReportJSON()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("same inputs produced different report bytes")
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("p99<=40ms, neworder:p95<=20ms, err<=2%, p50<=500us, p999<=10000000cy")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 5 {
		t.Fatalf("parsed %d objectives, want 5", len(objs))
	}
	// 40 ms at 250 cycles/us = 10M cycles.
	if objs[0].Class != "*" || objs[0].Quantile != 0.99 || objs[0].ThresholdCycles != 10_000_000 {
		t.Fatalf("bad p99 objective: %+v", objs[0])
	}
	if objs[1].Class != "neworder" || objs[1].ThresholdCycles != 5_000_000 {
		t.Fatalf("bad scoped objective: %+v", objs[1])
	}
	if objs[2].Quantile != 0 || objs[2].Budget != 0.02 {
		t.Fatalf("bad error objective: %+v", objs[2])
	}
	if objs[3].ThresholdCycles != 125_000 {
		t.Fatalf("bad us objective: %+v", objs[3])
	}
	if objs[4].ThresholdCycles != 10_000_000 {
		t.Fatalf("bad cy objective: %+v", objs[4])
	}

	for _, bad := range []string{"p98<=40ms", "p99=40ms", "err<=0%", "err<=bogus", "p99<=0ms",
		"err<=nan%", "p99<=nanms", "p99<=infms", "p99<=1e300s"} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted invalid spec", bad)
		}
	}
	if objs, err := ParseObjectives(""); err != nil || objs != nil {
		t.Error("empty spec must parse to no objectives")
	}
}

func TestSLOBurnRates(t *testing.T) {
	objs, err := ParseObjectives("p99<=1000cy,err<=10%")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(Options{IntervalCycles: 10_000, Objectives: objs})
	c.Reset(0)

	// Interval 0: 100 requests all fast — SLO met.
	for i := 0; i < 100; i++ {
		s := c.Begin(mkOp("m", true), 0)
		c.End(s, 500)
	}
	// Interval 1: 100 requests, 10 slow — bad fraction 10% against a 1%
	// budget: burn rate 10.
	for i := 0; i < 90; i++ {
		s := c.Begin(mkOp("m", true), 10_000)
		c.End(s, 10_500)
	}
	for i := 0; i < 10; i++ {
		s := c.Begin(mkOp("m", true), 10_000)
		c.End(s, 30_000) // completes in a later bin? no: 30_000 is bin 3
	}

	// The 10 slow ones complete at 30_000 → bin 3 with latency 20_000.
	r := c.BuildReport()
	if len(r.SLO) != 2 {
		t.Fatalf("slo results = %d, want 2", len(r.SLO))
	}
	lat := r.SLO[0]
	if lat.Requests != 200 || lat.Bad != 10 {
		t.Fatalf("latency slo totals: %+v", lat)
	}
	// Interval 0 and 1 clean; interval 3 has 10/10 bad → burn 100.
	if lat.Intervals[0].BurnRate != 0 || !lat.Intervals[0].Met {
		t.Fatalf("interval 0 should be clean: %+v", lat.Intervals[0])
	}
	if lat.Intervals[3].Bad != 10 || lat.Intervals[3].Met {
		t.Fatalf("interval 3 should violate: %+v", lat.Intervals[3])
	}
	if lat.WorstInterval != 3 || lat.Violations != 1 || lat.Met {
		t.Fatalf("latency slo verdict: %+v", lat)
	}
	// Overall: 10 bad of 200 against 1% budget → burn 5.
	if lat.BudgetBurn < 4.99 || lat.BudgetBurn > 5.01 {
		t.Fatalf("budget burn = %v, want 5", lat.BudgetBurn)
	}

	// Error objective: no error-class requests at all — met, zero burn.
	errRes := r.SLO[1]
	if !errRes.Met || errRes.Bad != 0 {
		t.Fatalf("error slo verdict: %+v", errRes)
	}

	// Now shed 30 of the next interval's requests.
	for i := 0; i < 70; i++ {
		s := c.Begin(mkOp("m", true), 40_000)
		c.End(s, 40_100)
	}
	for i := 0; i < 30; i++ {
		s := c.Begin(mkOp("shed", false), 40_000)
		c.End(s, 40_001)
	}
	r = c.BuildReport()
	errRes = r.SLO[1]
	// Interval 4: 30 errors of 100 against a 10% budget → burn 3.
	iv := errRes.Intervals[4]
	if iv.Requests != 100 || iv.Bad != 30 || iv.Met {
		t.Fatalf("error interval: %+v", iv)
	}
	if iv.BurnRate < 2.99 || iv.BurnRate > 3.01 {
		t.Fatalf("error burn = %v, want 3", iv.BurnRate)
	}
	if errRes.Met {
		t.Fatal("error slo should be violated overall")
	}
	// The latency objective must ignore the shed class's latency.
	lat = r.SLO[0]
	if lat.Requests != 270 {
		t.Fatalf("latency slo saw %d requests, want 270 (errors excluded)", lat.Requests)
	}
}

// TestReportReadsBoundGCPauses: the jvm_gc_pause summary is a view of the
// histogram bound by the engine, zero when none is bound; the collector
// neither records into it nor resets it.
func TestReportReadsBoundGCPauses(t *testing.T) {
	c := NewCollector(Options{IntervalCycles: 1000})
	if got := c.BuildReport().GCPause; got != (obs.HDRSummary{}) {
		t.Fatalf("unbound pause summary = %+v, want zero", got)
	}
	var pauses obs.HDR
	c.BindGCPauses(&pauses)
	pauses.Record(4000)
	pauses.Record(6000)
	c.Reset(100)
	if got := c.BuildReport().GCPause; got.Count != 2 || got.Max != 6000 {
		t.Fatalf("bound pause summary = %+v, want count 2, max 6000", got)
	}
}

func TestResetReanchors(t *testing.T) {
	c := NewCollector(Options{IntervalCycles: 1000})
	s := c.Begin(mkOp("m", true), 10)
	c.End(s, 20)
	c.Reset(5000)
	if len(c.CountByClass()) != 0 {
		t.Fatal("reset did not clear accumulators")
	}
	s = c.Begin(mkOp("m", true), 5100)
	c.End(s, 5200)
	r := c.BuildReport()
	if r.OriginCycle != 5000 || len(r.Intervals) != 1 || r.Intervals[0].StartCycle != 5000 {
		t.Fatalf("reset did not re-anchor the series: %+v", r.Intervals)
	}
}
