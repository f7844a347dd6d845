package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

// TestTagWidthCoversAddressSpace: a cache word keeps only a block's tag, the
// address bits above the set index, in 4 bytes, so each geometry covers the
// addresses below a bound and panics at or above it. Every machine a driver
// or a study builds must lay out its address space below the narrowest bound
// of every geometry that sees it: the hierarchy's L1s and L2s, and the
// Figure 12/13 sweep's ladders. The machines are every timing cell of the
// full preset (the scaling sweep to its largest processor count, the
// shared-cache L2s, the ablations), Figure 11's functional machines and the
// sweep's uniprocessors, and each workload on the whole machine at Figure
// 11's largest scale, past any driver's default. The co-simulated database
// machine lays out the same heap and less code than the ECperf machine it
// serves.
func TestTagWidthCoversAddressSpace(t *testing.T) {
	full := Study{}
	var params []SystemParams
	for _, e := range append(slices.Clone(FigureStudies), Ablations...) {
		if e.cells != nil {
			for _, c := range e.cells(full) {
				params = append(params, c.Params)
			}
		}
	}
	maxScale := slices.Max(presets[false].scales)
	for _, k := range []Kind{SPECjbb, ECperf, VolanoMark} {
		params = append(params,
			SystemParams{Kind: k, Processors: 1, Scale: maxScale, TotalCPUs: 2, HeapConfig: fig11HeapConfig},
			SystemParams{Kind: k, Processors: MachineCPUs, Scale: maxScale})
	}
	for _, sp := range sweepSpecs {
		params = append(params, uniSweepParams(sp.kind, sp.scale, 0))
	}

	// top is the highest address any machine hands out: the next region's
	// base, less one, is above every region reserved so far.
	var top mem.Addr
	var geoms []cache.Config
	for _, p := range params {
		sys := BuildSystem(p)
		top = max(top, sys.Space.Reserve("top", 1).Base-1)
		c := sys.Hier.Config()
		for _, g := range []cache.Config{c.L1I, c.L1D, c.L2} {
			if !slices.Contains(geoms, g) {
				geoms = append(geoms, g)
			}
		}
	}
	fits := func(what string, access func()) {
		t.Helper()
		defer func() {
			if err := recover(); err != nil {
				t.Errorf("%s: highest address %#x does not fit: %v", what, top, err)
			}
		}()
		access()
	}
	for _, g := range geoms {
		c := cache.New(g)
		fits(g.String(), func() { c.Allocate(c.BlockAddr(top), 1) })
	}
	const fixedBytes = 256 << 10 // cachesweep's -fixed default
	for _, ladder := range [][]cache.Config{
		cache.SizeSweepConfigs("size"),
		cache.AssocSweepConfigs("assoc", fixedBytes),
		cache.BlockSweepConfigs("block", fixedBytes),
	} {
		sw := cache.NewSweep(ladder)
		fits(fmt.Sprint(ladder), func() {
			sw.AccessRange(top, 1, mem.Read)
			sw.FetchRun(top&^63, 1)
		})
	}
	t.Logf("%d machines, %d hierarchy geometries; highest address %#x", len(params), len(geoms), top)
}
