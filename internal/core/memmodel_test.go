package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/workload/dbserver"
)

// TestMemModelFixedPassivity pins the fixed-model fingerprint of a quick
// 4-processor run of each workload to the value measured before the loaded-
// latency model landed. `-memmodel fixed` (the default) must remain
// bit-identical to the pre-model simulator: if this test fails, the fixed
// path picked up a behavioral change, and perfcheck/checkpoint baselines are
// invalidated.
func TestMemModelFixedPassivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	want := map[Kind]uint64{
		SPECjbb: 0xf645a5de5ad80ebf,
		ECperf:  0x8028c5f66a2e8d7,
	}
	for kind, fp := range want {
		sys := BuildSystem(SystemParams{Kind: kind, Processors: 4, Seed: 20030208})
		sys.Engine.Run(4_000_000)
		sys.Engine.ResetStats()
		sys.Engine.Run(4_000_000 + 16_000_000)
		if got := Fingerprint(sys); got != fp {
			t.Errorf("%s fixed-model fingerprint = %#x, want %#x (fixed mode must stay bit-identical)", kind, got, fp)
		}
	}
}

// TestMemModelLoadedDeterministic: the loaded model is still a deterministic
// simulation — two identically-configured runs fingerprint identically.
func TestMemModelLoadedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	st := Study{Quick: true, MemModel: memsys.MemLoaded}
	c := st.ScalingCell(ECperf, 8, st.SeedList()[0])
	run := func() uint64 {
		sys := BuildSystem(c.Params)
		r := &Run{Sys: sys, slice: c.Warmup + c.Measure}
		if err := r.Measure(c.Warmup, c.Measure, nil); err != nil {
			t.Fatal(err)
		}
		return Fingerprint(sys)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("loaded-model fingerprints differ: %#x vs %#x", a, b)
	}
}

// TestMemModelLoadedMovesTowardPaper: at high processor counts the loaded
// model must raise ECperf's CPI (Figure 6's growth) and its cache-to-cache
// ratio (Figure 8) relative to the fixed model — the two documented gaps the
// model exists to close.
func TestMemModelLoadedMovesTowardPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("two 20M-cycle runs")
	}
	point := func(model memsys.MemModel) CellResult {
		st := Study{Quick: true, MemModel: model}
		return st.ScalingCell(ECperf, 15, st.SeedList()[0]).Run()
	}
	fixed, loaded := point(memsys.MemFixed), point(memsys.MemLoaded)
	if loaded.CPI <= fixed.CPI {
		t.Errorf("loaded CPI %.3f not above fixed %.3f at 15 processors", loaded.CPI, fixed.CPI)
	}
	if loaded.C2CRatio <= fixed.C2CRatio {
		t.Errorf("loaded C2C ratio %.3f not above fixed %.3f at 15 processors", loaded.C2CRatio, fixed.C2CRatio)
	}
	if loaded.C2CRatio <= 0.45 {
		t.Errorf("loaded C2C ratio %.1f%% did not exceed 45%%", 100*loaded.C2CRatio)
	}
}

// TestMemModelCurveOverride: SystemParams.MemCurve reaches the hierarchy.
func TestMemModelCurveOverride(t *testing.T) {
	flat := &memsys.LoadedConfig{
		MemCurve:              []memsys.CurveKnot{{Util: 0, Mult: 1}},
		C2CCurve:              []memsys.CurveKnot{{Util: 0, Mult: 1}},
		InterventionStartUtil: 2,
	}
	sys := BuildSystem(SystemParams{Kind: ECperf, Processors: 2, Seed: 1, MemModel: memsys.MemLoaded, MemCurve: flat})
	if sys.Hier.Model() != memsys.MemLoaded {
		t.Fatal("MemModel did not reach the hierarchy")
	}
	ls, ok := sys.Hier.LoadSnapshot()
	if !ok {
		t.Fatal("no load snapshot under loaded model")
	}
	if ls.MemMult != 1 || ls.C2CMult != 1 {
		t.Fatalf("flat curve override ignored: %+v", ls)
	}
}

// TestNoTimingStudyIgnoresMemModel lists every study's declared cells under
// a loaded quick Study, without running the cells: each timing cell must take the
// loaded model, and only the functional uniprocessor studies, Fig 11 and
// Figs 12/13, may declare themselves timing-free. A co-simulated cell's
// database machine must run under the loaded model too: alone on the same
// requests, it stalls longer on memory than under the fixed model.
func TestNoTimingStudyIgnoresMemModel(t *testing.T) {
	st := Study{Quick: true, MemModel: memsys.MemLoaded}
	var timingFree []string
	for _, e := range append(slices.Clone(FigureStudies), Ablations...) {
		if e.cells == nil {
			timingFree = append(timingFree, fmt.Sprint(e.Figs))
			continue
		}
		cells := e.cells(st)
		if len(cells) == 0 {
			t.Errorf("%s: timing study declares no cells", e.Name)
		}
		for i, c := range cells {
			if c.Params.MemModel != memsys.MemLoaded {
				t.Errorf("%s: cell %d runs under %s", e.Name, i, c.Params.MemModel)
			}
			if c.Params.CoSimDB {
				fixed := c.Params
				fixed.MemModel = memsys.MemFixed
				if l, f := dbMemStall(c.Params), dbMemStall(fixed); l <= f {
					t.Errorf("%s: cell %d's database machine stalls %d cycles on memory under %s, %d under %s",
						e.Name, i, l, c.Params.MemModel, f, fixed.MemModel)
				}
			}
		}
	}
	if want := []string{"[11]", "[12 13]"}; !slices.Equal(timingFree, want) {
		t.Errorf("timing-free studies %v, want Fig 11 and Figs 12/13 %v", timingFree, want)
	}
}

// dbMemStall builds the co-simulated deployment for p and runs its database
// machine alone on a fixed stream of requests, returning the machine's
// memory-stall cycles. The application server is built but never run, so
// only the database machine's own memory system can move the result.
func dbMemStall(p SystemParams) uint64 {
	cs := buildCoSim(p)
	cs.db.OnOpComplete = func(op *trace.Op, _ int, _ uint64) { cs.srv.TakeRequest(op) }
	for i := 0; i < 200; i++ {
		cs.srv.Enqueue(dbserver.Request{ReqBytes: 300, RespBytes: 1400, DeliverAt: uint64(i) * 10_000})
	}
	cs.db.Run(2_000_000)
	return cs.db.Results().CPU.DStallMem
}
