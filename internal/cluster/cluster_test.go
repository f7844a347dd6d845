package cluster

import (
	"testing"

	"repro/internal/ifetch"
	"repro/internal/jvm"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/osmodel"
	"repro/internal/simrand"
	"repro/internal/trace"
	"repro/internal/workload/dbserver"
)

// funcSource adapts a function to osmodel.OpSource.
type funcSource func(tid int, now uint64) *trace.Op

func (f funcSource) NextOp(tid int, now uint64) *trace.Op { return f(tid, now) }

// rig assembles a tiny two-machine cluster: one client thread calling an
// external peer, and a database machine answering.
func rig(t *testing.T, calls int) (*Coordinator, *osmodel.Engine, *osmodel.Engine, *dbserver.Server) {
	t.Helper()
	// Client machine.
	cSpace := mem.NewAddrSpace()
	cLayout := ifetch.NewCodeLayout(cSpace)
	user := cLayout.Add("client", 64<<10, false, ifetch.Profile{})
	cNet := netsim.NewNetwork()
	cNet.CoSimulateDatabase()
	app := osmodel.NewEngine(osmodel.DefaultConfig(2), memsys.New(memsys.DefaultConfig(2)), cLayout, cNet, simrand.New(1))
	n := 0
	app.AddThread("caller", funcSource(func(tid int, now uint64) *trace.Op {
		if n >= calls {
			return nil
		}
		n++
		rec := trace.NewRecorder("call")
		rec.Reset("call", true)
		rec.Instr(user.ID, 2_000)
		rec.NetCall(netsim.PeerDatabase, 300, 1400)
		rec.Instr(user.ID, 1_000)
		return rec.Finish()
	}))

	// Database machine.
	dSpace := mem.NewAddrSpace()
	dLayout := ifetch.NewCodeLayout(dSpace)
	comps := dbserver.Components{SQL: dLayout.Add("dbms", 128<<10, false, ifetch.Profile{})}
	kern := dLayout.Add("kernel-net", 128<<10, true, ifetch.Profile{})
	dNet := netsim.NewNetwork()
	ns := netsim.NewNetStack(dSpace, kern)
	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 32 << 20
	hcfg.NewGenBytes = 6 << 20
	heap := jvm.MustNewHeap(dSpace, hcfg)
	srv := dbserver.New(heap, comps, ns, simrand.New(3))
	db := osmodel.NewEngine(osmodel.DefaultConfig(2), memsys.New(memsys.DefaultConfig(2)), dLayout, dNet, simrand.New(4))
	for i := 0; i < 4; i++ {
		db.AddThread("db-worker", srv.WorkerSource(i))
	}

	return New(app, db, srv), app, db, srv
}

func TestRoundTripCompletes(t *testing.T) {
	coord, app, _, srv := rig(t, 5)
	coord.Run(20_000_000)
	res := app.Results()
	if res.BusinessOps != 5 {
		t.Fatalf("completed calls = %d, want 5", res.BusinessOps)
	}
	if srv.Served != 5 {
		t.Fatalf("database served %d requests, want 5", srv.Served)
	}
}

func TestCallerWaitsAtLeastTwoWireLatencies(t *testing.T) {
	coord, app, _, _ := rig(t, 1)
	coord.Run(20_000_000)
	h := app.Results().LatencyByTag["call"]
	if h == nil || h.Count() != 1 {
		t.Fatal("no call latency recorded")
	}
	if h.Mean() < float64(2*netsim.LinkLatencyCycles) {
		t.Fatalf("round trip %v cycles beat the wire (impossible)", h.Mean())
	}
}

func TestWindowRespectsLookahead(t *testing.T) {
	if window == 0 || window > latency {
		t.Fatalf("window %d outside (0, lookahead %d]", window, latency)
	}
}

func TestDeterministicCoSim(t *testing.T) {
	run := func() uint64 {
		coord, app, _, _ := rig(t, 10)
		coord.Run(40_000_000)
		h := app.Results().LatencyByTag["call"]
		if h == nil {
			return 0
		}
		return uint64(h.Mean())
	}
	if run() != run() {
		t.Fatal("co-simulation not deterministic")
	}
}

func TestDBMachineMeasurable(t *testing.T) {
	coord, _, db, _ := rig(t, 8)
	coord.Run(30_000_000)
	res := db.Results()
	if res.OpsByTag["query"] != 8 {
		t.Fatalf("db processed %d queries, want 8", res.OpsByTag["query"])
	}
	if res.CPU.Instructions == 0 {
		t.Fatal("db machine executed nothing")
	}
	if res.Modes.Idle == 0 {
		t.Fatal("a nearly idle db machine reported no idle time")
	}
}

// TestPerWindowConservationGroundTruth checks the books at EVERY lockstep
// window boundary, not just at quiescence: every request the application
// server has issued so far must be, exactly, either queued at the database
// server or taken by one of its workers (Served).
func TestPerWindowConservationGroundTruth(t *testing.T) {
	const calls = 200
	coord, app, _, srv := rig(t, calls)
	var requests uint64
	call := app.OnExternalCall
	app.OnExternalCall = func(tid int, peer uint8, req, resp uint32, now uint64) {
		requests++
		call(tid, peer, req, resp, now)
	}

	windows, busy := 0, 0
	coord.OnWindow = func(tw uint64) {
		windows++
		if got := uint64(srv.QueueDepth()) + srv.Served; got != requests {
			t.Fatalf("window %d: %d requests issued, server accounts for %d (%d queued + %d served)",
				tw, requests, got, srv.QueueDepth(), srv.Served)
		}
		if srv.QueueDepth()+srv.InService() > 0 {
			busy++
		}
	}
	coord.Run(90_000_000)

	if windows == 0 || busy == 0 {
		t.Fatalf("check never exercised: %d windows, %d with a request in flight", windows, busy)
	}
	if requests != calls || srv.Served != calls || srv.QueueDepth()+srv.InService() != 0 {
		t.Fatalf("at quiescence: %d issued, %d served, %d queued, %d in service; want %d, %d, 0, 0",
			requests, srv.Served, srv.QueueDepth(), srv.InService(), calls, calls)
	}
	if got := app.Results().BusinessOps; got != calls {
		t.Fatalf("caller completed %d ops, want %d", got, calls)
	}
}
