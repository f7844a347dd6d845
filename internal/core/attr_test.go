package core

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/obs/attr"
)

// runAttr executes one small observed SPECjbb run with attribution attached
// and returns the marshalled report plus the system for counter checks.
func runAttr(t *testing.T, seed uint64, exact bool) ([]byte, *System, *attr.Collector) {
	t.Helper()
	sys := BuildSystem(SystemParams{Kind: SPECjbb, Processors: 4, Seed: seed})
	ob := &obs.Observer{Attr: attr.NewCollector(attr.Options{Exact: exact})}
	observeRun(t, sys, ob, nil, 2_000_000, 10_000_000)
	buf, err := json.Marshal(ob.Attr.BuildReport(25))
	if err != nil {
		t.Fatal(err)
	}
	return buf, sys, ob.Attr
}

// TestAttrDeterministic: the same seed must produce bit-identical
// attribution reports — sampling is hash-based and the simulator is
// single-threaded, so there is no tolerance here.
func TestAttrDeterministic(t *testing.T) {
	a, _, _ := runAttr(t, 20030208, false)
	b, _, _ := runAttr(t, 20030208, false)
	if string(a) != string(b) {
		t.Error("same seed produced different attribution reports")
	}
}

// TestAttrIsPassive: attribution must observe the run, never perturb it.
// The engine's results and the bus's counters must be bit-identical with
// the collector attached and absent.
func TestAttrIsPassive(t *testing.T) {
	_, with, _ := runAttr(t, 20030208, true)

	bare := BuildSystem(SystemParams{Kind: SPECjbb, Processors: 4, Seed: 20030208})
	observeRun(t, bare, nil, nil, 2_000_000, 10_000_000)

	if with.Hier.Bus().Stats != bare.Hier.Bus().Stats {
		t.Errorf("bus stats diverge with attribution attached:\nwith    %+v\nwithout %+v",
			with.Hier.Bus().Stats, bare.Hier.Bus().Stats)
	}
	wr, br := with.Engine.Results(), bare.Engine.Results()
	if wr.BusinessOps != br.BusinessOps || wr.CPU != br.CPU || wr.GCCount != br.GCCount {
		t.Errorf("engine results diverge with attribution attached:\nwith    ops=%d cpu=%+v gc=%d\nwithout ops=%d cpu=%+v gc=%d",
			wr.BusinessOps, wr.CPU, wr.GCCount, br.BusinessOps, br.CPU, br.GCCount)
	}
}

// TestAttrExactConservation: end-to-end conservation on a real workload —
// every bus event in the measurement window attributed exactly once.
func TestAttrExactConservation(t *testing.T) {
	_, sys, c := runAttr(t, 20030208, true)
	sum := c.SumCounts()
	st := sys.Hier.Bus().Stats
	if sum.GetS != st.GetS || sum.GetM != st.GetM || sum.Upgrades != st.Upgrades ||
		sum.C2C != st.C2CTransfers || sum.Writebacks != st.Writebacks || sum.Invals != st.Invalidations {
		t.Errorf("attributed sums != bus stats:\nattr %+v\nbus  GetS=%d GetM=%d Upg=%d C2C=%d WB=%d Inv=%d",
			sum, st.GetS, st.GetM, st.Upgrades, st.C2CTransfers, st.Writebacks, st.Invalidations)
	}
}

// TestAttrReportShape: a real multiprocessor run must produce labeled hot
// objects, closed epochs, and C2C attributed to the communication patterns
// (the paper's §4.3: migratory + producer-consumer data dominate transfers).
func TestAttrReportShape(t *testing.T) {
	buf, _, c := runAttr(t, 20030208, true)
	var r attr.Report
	if err := json.Unmarshal(buf, &r); err != nil {
		t.Fatal(err)
	}
	if r.Events == 0 || r.LinesTracked == 0 {
		t.Fatal("observed run attributed no events")
	}
	if r.Epochs == 0 {
		t.Error("no attribution epochs closed (GC epochs + final)")
	}
	if len(r.HotLines) == 0 || len(r.HotObjects) == 0 {
		t.Fatal("report has empty hot tables")
	}
	labeled := false
	for _, o := range r.HotObjects {
		if o.Label != "" && o.Label != "unattributed" {
			labeled = true
		}
	}
	if !labeled {
		t.Error("no hot object carries an allocation-site or region label")
	}
	var shared, total uint64
	for name, ps := range r.PatternMix {
		total += ps.C2C
		if name != "read-only" && name != "private" {
			shared += ps.C2C
		}
	}
	if total == 0 {
		t.Fatal("no C2C transfers attributed on a 4-processor run")
	}
	if shared*2 < total {
		t.Errorf("communication patterns own %d of %d C2C transfers; expected the majority", shared, total)
	}
	_ = c
}

// TestSweepAttr: the uniprocessor sweep path must also fill the collector
// (reference-level) and label heap objects.
func TestSweepAttr(t *testing.T) {
	var col *attr.Collector
	o := QuickSweepOpts()
	o.Observe = func(label string) *obs.Observer {
		ob := &obs.Observer{Attr: attr.NewCollector(attr.Options{})}
		col = ob.Attr
		return ob
	}
	r := runUniSweep(SPECjbb, 2, "SPECjbb-2", o,
		cache.SizeSweepConfigs("I"), cache.SizeSweepConfigs("D"))
	if r.Instructions == 0 {
		t.Fatal("sweep ran nothing")
	}
	if col.Events() == 0 || col.Len() == 0 {
		t.Fatal("sweep attributed no references")
	}
	if col.EpochCount() == 0 {
		t.Error("sweep closed no attribution epochs")
	}
	rep := col.BuildReport(10)
	if len(rep.HotObjects) == 0 {
		t.Error("sweep report has no hot objects")
	}
}
