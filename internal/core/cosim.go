package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/workload/dbserver"
)

// CoSim is a co-simulated two-machine ECperf deployment: the application
// server (measured, as always) plus a real simulated database machine,
// coupled by a cluster coordinator — the paper's §3.3 methodology, where
// all tiers ran under simulation and only the middle tier was profiled.
type CoSim struct {
	App   *System
	DBEng *osmodel.Engine
	DBSrv *dbserver.Server
	Coord *cluster.Coordinator
}

// BuildCoSim assembles the deployment. The database machine is an
// 8-processor system of the same family running the dbserver workload with
// 16 worker threads.
func BuildCoSim(procs int, seed uint64) *CoSim {
	app := BuildSystem(SystemParams{
		Kind:       ECperf,
		Processors: procs,
		Seed:       seed,
		CoSimDB:    true,
	})

	// The database machine.
	rng := simrand.New(seed ^ 0xdb)
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	comps := dbserver.Components{
		SQL: layout.Add("dbms", 384<<10, false, codeProfile()),
	}
	gcComp := layout.Add("jvm-gc", 96<<10, false, codeProfile())
	kern := layout.Add("kernel-net", 256<<10, true, codeProfile())

	hcfg := heapConfig()
	hcfg.GCComp = gcComp.ID
	heap := jvm.MustNewHeap(space, hcfg)

	net := netsim.NewNetwork(netsim.DefaultLink())
	ns := netsim.NewNetStack(space, kern, netstackConfig(), rng.Derive(1))

	mcfg := memsys.DefaultConfig(8)
	hier := memsys.New(mcfg)
	ecfg := osmodel.DefaultConfig(8)
	eng := osmodel.NewEngine(ecfg, hier, layout, net, rng.Derive(2))
	osmodel.AddOSDaemons(eng, space, kern, rng.Derive(3))

	srv := dbserver.New(dbserver.DefaultConfig(), heap, comps, ns, rng.Derive(4))
	for i := 0; i < 16; i++ {
		eng.AddThread("db-worker", srv.WorkerSource(i))
	}

	coord := cluster.New(app.Engine, eng, srv, netsim.DefaultLink().LatencyCycles)
	return &CoSim{App: app, DBEng: eng, DBSrv: srv, Coord: coord}
}

// CoSimResult compares the queueing-model database against the
// co-simulated one.
type CoSimResult struct {
	ModelThroughput float64 // BBops/s with the internal/db timing model
	CoSimThroughput float64 // BBops/s with the real database machine
	DBBusyFrac      float64 // database machine busy fraction (mpstat view)
	DBQueries       uint64
}

// RunCoSim measures both configurations at the same seed and window.
func RunCoSim(procs int, seed uint64, warmup, measure uint64) CoSimResult {
	// Queueing-model baseline.
	base := BuildSystem(SystemParams{Kind: ECperf, Processors: procs, Seed: seed})
	res := CoSimResult{ModelThroughput: measurePoint(base, nil, warmup, measure).Throughput}

	// Co-simulated deployment.
	cs := BuildCoSim(procs, seed)
	cs.Coord.Run(warmup)
	cs.App.Engine.ResetStats()
	cs.DBEng.ResetStats()
	cs.Coord.Run(warmup + measure)
	res.CoSimThroughput = float64(cs.App.Engine.Results().BusinessOps) / (float64(measure) / CyclesPerSecond)
	dbm := cs.DBEng.Results().Modes
	if total := float64(dbm.Total()); total > 0 {
		res.DBBusyFrac = float64(dbm.Busy()) / total
	}
	res.DBQueries = cs.DBSrv.Served
	return res
}

// CoSimExperiment renders the comparison: the queueing abstraction the
// other experiments use should agree with the fully simulated database to
// within a modest margin, and the database machine itself should be far
// from saturated ("ECperf does not overly stress the database", §2.2).
func CoSimExperiment(o AblationOpts) Figure {
	r := RunCoSim(StudyProcessors, o.Seed, o.WarmupCycles, o.MeasureCycles)
	f := Figure{
		ID:     "Co-simulation",
		Title:  "Queueing-model database vs. co-simulated database machine",
		XLabel: "configuration (0=model, 1=co-simulated)",
		YLabel: "Throughput (BBops/s)",
	}
	f.Series = append(f.Series, Series{
		Label: "ECperf",
		X:     []float64{0, 1},
		Y:     []float64{r.ModelThroughput, r.CoSimThroughput},
		Err:   []float64{0, 0},
	})
	ratio := 0.0
	if r.ModelThroughput > 0 {
		ratio = r.CoSimThroughput / r.ModelThroughput
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("co-simulated throughput is %.0f%% of the queueing model's", 100*ratio),
		fmt.Sprintf("database machine busy %.0f%% of its cycles over %d queries — not a bottleneck (§2.2)",
			100*r.DBBusyFrac, r.DBQueries))
	return f
}
