package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/obs/flightrec"
	"repro/internal/osmodel"
)

// workload is one benchmark input: a simulated machine and how it is driven.
// Timed workloads run the full timing engine through a warm-up and a
// measurement window; the cache sweep runs the functional-only sweeper.
type workload struct {
	name  string
	kind  core.Kind
	procs int
	scale int
	model memsys.MemModel
	// flight arms the flight recorder, as the drivers do by default;
	// observe adds -trace -latency -attr -metrics and writes their artifacts
	// every rep.
	flight, observe bool
	// warmup and measure are simulated cycles (timed workloads).
	warmup, measure uint64
	// sweepWarmOps and sweepOps are per-thread operations (cache sweep).
	sweepWarmOps, sweepOps int
}

// The two ECperf workloads simulate the same machine, so their fingerprints
// must match (observability is passive) and any host-time difference between
// them is the cost of observability.
var workloads = []workload{
	{name: "jbb-8p", kind: core.SPECjbb, procs: 8, scale: 8, flight: true,
		warmup: 12_000_000, measure: 80_000_000},
	{name: "ecperf-15p-loaded", kind: core.ECperf, procs: 15, scale: 10, model: memsys.MemLoaded,
		warmup: 12_000_000, measure: 72_000_000},
	{name: "ecperf-15p-obs", kind: core.ECperf, procs: 15, scale: 10, model: memsys.MemLoaded, flight: true, observe: true,
		warmup: 12_000_000, measure: 72_000_000},
	{name: "cachesweep-fig13", sweepWarmOps: 50, sweepOps: 400},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// shortened returns the workload cut to a few simulated milliseconds, for
// the smoke test.
func (w workload) shortened() workload {
	if w.sweepOps > 0 {
		w.sweepWarmOps, w.sweepOps = 5, 20
	} else {
		w.warmup, w.measure = 2_000_000, 5_000_000
	}
	return w
}

// watchdogCycles aborts a timed run that dispatches nothing for this long
// (0.4 simulated seconds), so a deadlock fails the rep instead of hanging it.
const watchdogCycles = 100_000_000

// span is one timed section of a rep, in host microseconds since the epoch.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_us"`
	Dur   int64  `json:"dur_us"`
}

// repResult is what one child process reports about its rep.
type repResult struct {
	Fingerprint string  `json:"fingerprint"`
	SetupS      float64 `json:"setup_s"`
	RunS        float64 `json:"run_s"`
	AllocMB     float64 `json:"alloc_mb"`
	// Instructions and Refs are the simulated work of the measured window.
	Instructions uint64  `json:"instructions"`
	Refs         uint64  `json:"refs"`
	ArtifactS    float64 `json:"artifact_s"`
	ArtifactMB   float64 `json:"artifact_mb"`
	// Counts are the simulated per-layer statistics; they repeat exactly
	// for a given seed.
	Counts map[string]float64 `json:"counts"`
	Spans  []span             `json:"spans"`
}

// spanClock records the consecutive sections of a rep.
type spanClock struct {
	spans []span
	last  time.Time
}

// lap closes the section that began at the previous lap and returns its
// length in seconds.
func (c *spanClock) lap(name string) float64 {
	now := time.Now()
	d := now.Sub(c.last)
	c.spans = append(c.spans, span{Name: name, Start: c.last.UnixMicro(), Dur: d.Microseconds()})
	c.last = now
	return d.Seconds()
}

// childMain runs one rep in this process and prints its repResult as JSON:
//
//	bench -child WORKLOAD -seed N [-short] [-cpuprofile FILE]
func childMain(args []string, stdout io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "bench: -child needs a workload name")
		return 2
	}
	fset := flag.NewFlagSet("bench -child", flag.ContinueOnError)
	seed := fset.Uint64("seed", defaultSeed, "simulation seed")
	short := fset.Bool("short", false, "run the shortened smoke-test length")
	prof := fset.String("cpuprofile", "", "write a CPU profile of the run call to FILE")
	if err := fset.Parse(args[1:]); err != nil {
		return 2
	}
	w, err := lookup(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *short {
		w = w.shortened()
	}
	res, err := runRep(w, *seed, *prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

func runRep(w workload, seed uint64, prof string) (*repResult, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	clk := &spanClock{last: time.Now()}
	repStart := clk.last

	var res *repResult
	var err error
	if w.sweepOps > 0 {
		res, err = runSweep(w, seed, prof, clk)
	} else {
		res, err = runTimed(w, seed, prof, clk)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	res.Spans = append(clk.spans, span{Name: "rep", Start: repStart.UnixMicro(), Dur: time.Since(repStart).Microseconds()})
	return res, nil
}

// profiled runs fn under the Go CPU profiler when path is set.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil && ferr == nil {
		ferr = err
	}
	return ferr
}

// runTimed drives one timed workload the way the drivers do: build, attach
// the observability the workload asks for, warm up, measure, write
// artifacts.
func runTimed(w workload, seed uint64, prof string, clk *spanClock) (*repResult, error) {
	res := &repResult{}
	ofl := obs.Flags{Flight: "off"}
	dir := ""
	if w.flight || w.observe {
		var err error
		if dir, err = os.MkdirTemp("", w.name+"-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		if w.flight {
			ofl.Flight = dir
		}
		if w.observe {
			ofl.Trace = filepath.Join(dir, "trace.json")
			ofl.Latency = filepath.Join(dir, "latency.json")
			ofl.Attr = filepath.Join(dir, "attr.json")
			ofl.Metrics = filepath.Join(dir, "metrics.txt")
		}
	}
	var ob *obs.Observer
	if ofl.Enabled() {
		ob = ofl.NewObserver(0)
	}
	ob, rec := flightrec.FromFlags(&ofl, w.name, ob)
	rt, err := core.NewLatencyCollector(&ofl)
	if err != nil {
		return nil, err
	}
	sys := core.BuildSystem(core.SystemParams{
		Kind:           w.kind,
		Processors:     w.procs,
		Scale:          w.scale,
		Seed:           seed,
		MemModel:       w.model,
		WatchdogCycles: watchdogCycles,
	})
	core.AttachLatency(sys, ob, rt)
	core.AttachFlight(sys, rec)
	res.SetupS = clk.lap("setup")

	var delta *obs.Snapshot
	err = profiled(prof, func() error {
		var err error
		delta, err = core.ObserveRunCheckpointed(sys, ob, nil, w.warmup, w.measure, nil)
		return err
	})
	res.RunS = clk.lap("run")
	if err != nil {
		return nil, err
	}

	if wd := sys.Engine.WatchdogTripped(); wd != nil {
		return nil, fmt.Errorf("watchdog tripped:\n%s", wd)
	}
	st := readStats(sys, w.measure)
	if st.res.BusinessOps == 0 {
		return nil, errors.New("no business operations completed")
	}
	res.Fingerprint = fmt.Sprintf("%016x", core.Fingerprint(sys))
	res.Counts = st.counts()
	res.Instructions = st.res.CPU.Instructions
	res.Refs = st.l1dRefs + st.l1iRefs
	clk.lap("check")

	if err := ofl.WriteArtifacts([]string{w.name}, []*obs.Observer{ob}, []*obs.Snapshot{delta}, nil); err != nil {
		return nil, fmt.Errorf("writing artifacts: %w", err)
	}
	if err := rec.Err(); err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	res.ArtifactS = clk.lap("artifacts")
	if res.ArtifactMB, err = treeMB(dir); err != nil {
		return nil, err
	}
	return res, nil
}

// treeMB is the size of the files under dir, in MiB.
func treeMB(dir string) (float64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return float64(n) / (1 << 20), err
}

// simStats holds the simulated statistics a rep reports per layer. A zero
// simStats reports zero for every layer, as the cache sweep does for the
// layers it bypasses.
type simStats struct {
	res                                osmodel.Results
	l1dRefs, l1dMiss, l1iRefs, l1iMiss uint64
	bus                                coherence.Stats
	load                               memsys.LoadSnapshot
	l2MPKI, dbUtil                     float64
	heapAlloc, measure, sweepRefs      uint64
}

// readStats reads a timed run's measurement window. References count every
// processor of the machine, since the host also simulates the OS daemons
// outside the processor set.
func readStats(sys *core.System, measure uint64) simStats {
	st := simStats{
		res:       sys.Engine.Results(),
		bus:       sys.Hier.Bus().Stats,
		heapAlloc: sys.Heap.Stats.AllocatedBytes,
		measure:   measure,
	}
	for cpu := 0; cpu < sys.Hier.Config().CPUs; cpu++ {
		d, i := &sys.Hier.L1D(cpu).Stats, &sys.Hier.L1I(cpu).Stats
		st.l1dRefs += d.Reads + d.Writes
		st.l1dMiss += d.ReadMisses + d.WriteMisses
		st.l1iRefs += i.Fetches
		st.l1iMiss += i.FetchMisses
	}
	st.load, _ = sys.Hier.LoadSnapshot()
	st.l2MPKI = sys.Hier.L2MissesPer1000(st.res.CPU.Instructions)
	if sys.DB != nil {
		st.dbUtil = sys.DB.Utilization()
	}
	return st
}

func (st simStats) counts() map[string]float64 {
	c := st.res.CPU
	in := float64(c.Instructions)
	modes := float64(st.res.Modes.Total())
	return map[string]float64{
		"cache.l1d_refs":            float64(st.l1dRefs),
		"cache.l1d_miss_ratio":      ratio(float64(st.l1dMiss), float64(st.l1dRefs)),
		"cache.l1i_fetches":         float64(st.l1iRefs),
		"cache.l1i_miss_ratio":      ratio(float64(st.l1iMiss), float64(st.l1iRefs)),
		"cache.sweep_refs":          float64(st.sweepRefs),
		"coherence.bus_txns":        float64(st.bus.GetS + st.bus.GetM + st.bus.Upgrades),
		"coherence.c2c_ratio":       st.bus.C2CRatio(),
		"coherence.invalidations":   float64(st.bus.Invalidations),
		"memsys.l2_mpki":            st.l2MPKI,
		"memsys.load_util":          st.load.Util,
		"memsys.extra_stall_cycles": float64(st.load.MemExtraCycles + st.load.C2CExtraCycles),
		"cpu.instructions":          in,
		"cpu.cpi":                   c.CPI(),
		"cpu.istall_cpi":            ratio(float64(c.IStallCycles), in),
		"cpu.dstall_l2_cpi":         ratio(float64(c.DStallL2Hit), in),
		"cpu.dstall_c2c_cpi":        ratio(float64(c.DStallC2C), in),
		"cpu.dstall_mem_cpi":        ratio(float64(c.DStallMem), in),
		"osmodel.business_ops":      float64(st.res.BusinessOps),
		"osmodel.idle_frac":         ratio(float64(st.res.Modes.Idle), modes),
		"osmodel.gc_idle_frac":      ratio(float64(st.res.Modes.GCIdle), modes),
		"osmodel.lock_wait_cycles":  float64(st.res.LockWaitCycles),
		"jvm.gc_count":              float64(st.res.GCCount),
		"jvm.gc_wall_frac":          ratio(float64(st.res.GCWall), float64(st.measure)),
		"jvm.alloc_mb":              float64(st.heapAlloc) / (1 << 20),
		"db.util":                   st.dbUtil,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sweepConfigs are the four uniprocessor configurations core.RunCacheSweeps
// simulates for Figures 12/13.
var sweepConfigs = []struct {
	kind  core.Kind
	scale int
}{{core.ECperf, 10}, {core.SPECjbb, 25}, {core.SPECjbb, 10}, {core.SPECjbb, 1}}

// runSweep runs the Figure 12/13 cache sweeps on the host's GOMAXPROCS
// workers. RunCacheSweeps builds its systems internally, so set-up is
// measured by building the same four systems beforehand.
func runSweep(w workload, seed uint64, prof string, clk *spanClock) (*repResult, error) {
	res := &repResult{}
	for _, c := range sweepConfigs {
		core.BuildSystem(core.SystemParams{Kind: c.kind, Processors: 1, Scale: c.scale, Seed: seed})
	}
	res.SetupS = clk.lap("setup")

	var cs *core.CacheSweeps
	err := profiled(prof, func() error {
		cs = core.RunCacheSweeps(core.SweepOpts{WarmupOps: w.sweepWarmOps, MeasureOps: w.sweepOps, Seed: seed})
		return nil
	})
	res.RunS = clk.lap("run")
	if err != nil {
		return nil, err
	}

	h := fnv.New64a()
	for _, r := range cs.Results {
		fmt.Fprintf(h, "%s %d", r.Label, r.Instructions)
		for _, curve := range [][]cache.Point{r.ICurve, r.DCurve} {
			for i, p := range curve {
				fmt.Fprintf(h, " %d %x %x", p.SizeBytes, math.Float64bits(p.MissesPer1000), math.Float64bits(p.MissRatio))
				// LRU inclusion: a larger cache of the same associativity and
				// block size never misses more.
				if i > 0 && p.MissesPer1000 > curve[i-1].MissesPer1000 {
					return nil, fmt.Errorf("%s: misses rise from %d to %d bytes", r.Label, curve[i-1].SizeBytes, p.SizeBytes)
				}
			}
			refs, err := sweepRefs(curve[0], r.Instructions)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.Label, err)
			}
			res.Refs += refs
		}
		res.Instructions += r.Instructions
	}
	res.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	res.Counts = simStats{sweepRefs: res.Refs}.counts()
	clk.lap("check")
	// The sweep writes no artifacts; the empty span keeps every rep's
	// spans alike.
	res.ArtifactS = clk.lap("artifacts")
	return res, nil
}

// sweepRefs recovers how many references one sweep stream carried from its
// first geometry: every geometry sees the same stream, and misses ÷ miss
// ratio is the access count.
func sweepRefs(p cache.Point, instructions uint64) (uint64, error) {
	if p.MissRatio == 0 {
		return 0, fmt.Errorf("no misses at %d bytes", p.SizeBytes)
	}
	misses := math.Round(p.MissesPer1000 * float64(instructions) / 1000)
	return uint64(math.Round(misses / p.MissRatio)), nil
}
