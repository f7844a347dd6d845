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

// coSim is a co-simulated two-machine ECperf deployment: the application
// server (measured, as always) plus a real simulated database machine,
// coupled by a cluster coordinator — the paper's §3.3 methodology, where
// all tiers ran under simulation and only the middle tier was profiled.
type coSim struct {
	app   *System
	db    *osmodel.Engine
	srv   *dbserver.Server
	coord *cluster.Coordinator
}

// coSimDBProcs is the database machine's processor count.
const coSimDBProcs = 8

// buildCoSim assembles the deployment for the application server's
// parameters p (Params.CoSimDB set). The database machine is an 8-processor
// system of the same family, under the same memory model, running the
// dbserver workload with 16 worker threads.
func buildCoSim(p SystemParams) *coSim {
	app := BuildSystem(p)

	// The database machine.
	rng := simrand.New(p.Seed ^ 0xdb)
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

	net := netsim.NewNetwork()
	// Reserved for the network stack, which draws nothing; the streams
	// derived after it keep their seeds.
	rng.Derive(1)
	ns := netsim.NewNetStack(space, kern)

	hier := memsys.New(p.memConfig(coSimDBProcs))
	ecfg := osmodel.DefaultConfig(coSimDBProcs)
	eng := osmodel.NewEngine(ecfg, hier, layout, net, rng.Derive(2))
	osmodel.AddOSDaemons(eng, space, kern, rng.Derive(3))

	srv := dbserver.New(heap, comps, ns, rng.Derive(4))
	for i := 0; i < 16; i++ {
		eng.AddThread("db-worker", srv.WorkerSource(i))
	}

	coord := cluster.New(app.Engine, eng, srv)
	return &coSim{app: app, db: eng, srv: srv, coord: coord}
}

// runCoSim measures a co-simulated deployment cell on the coordinator's
// loop: both machines reset their stats at the warm-up boundary.
func (c Cell) runCoSim() CellResult {
	cs := buildCoSim(c.Params)
	cs.coord.Run(c.Warmup)
	cs.app.Engine.ResetStats()
	cs.db.ResetStats()
	cs.coord.Run(c.Warmup + c.Measure)
	r := summarize(cs.app, c)
	dbm := cs.db.Results().Modes
	if total := float64(dbm.Total()); total > 0 {
		r.DBBusyFrac = float64(dbm.Busy()) / total
	}
	r.dbQueries = cs.srv.Served
	return r
}

// CoSimStudy compares the queueing-model database with a co-simulated
// database machine, both machines under the study's memory model: the
// queueing abstraction the other experiments use should agree with the
// fully simulated database to within a modest margin, and the database
// machine itself should be far from saturated ("ECperf does not overly
// stress the database", §2.2).
var CoSimStudy = &Experiment{
	Name: "cosim",
	// The queueing-model cell, then the same cell co-simulating a real
	// database machine.
	cells: func(st Study) []Cell {
		return vary(st.AblationCell(ECperf), []bool{false, true}, func(c *Cell, co bool) { c.Params.CoSimDB = co })
	},
	render: func(_ Study, rs []CellResult) []Figure {
		model, co := rs[0], rs[1]
		ratio := 0.0
		if model.Throughput > 0 {
			ratio = co.Throughput / model.Throughput
		}
		return []Figure{{
			ID:     "Co-simulation",
			Title:  "Queueing-model database vs. co-simulated database machine",
			XLabel: "configuration (0=model, 1=co-simulated)",
			YLabel: "Throughput (BBops/s)",
			Series: []Series{{
				Label: "ECperf",
				X:     []float64{0, 1},
				Y:     []float64{model.Throughput, co.Throughput},
				Err:   []float64{0, 0},
			}},
			Notes: []string{
				fmt.Sprintf("co-simulated throughput is %.0f%% of the queueing model's", 100*ratio),
				fmt.Sprintf("database machine busy %.0f%% of its cycles over %d queries — not a bottleneck (§2.2)",
					100*co.DBBusyFrac, co.dbQueries),
			},
		}}
	},
}
