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
	ns := netsim.NewNetStack(dSpace, kern, simrand.New(2))
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
	coord, app, _, _ := rig(t, 5)
	coord.Run(20_000_000)
	res := app.Results()
	if res.BusinessOps != 5 {
		t.Fatalf("completed calls = %d, want 5", res.BusinessOps)
	}
	if coord.Requests != 5 || coord.Replies != 5 {
		t.Fatalf("requests/replies = %d/%d", coord.Requests, coord.Replies)
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

// TestPerWindowConservationGroundTruth checks the coordinator's books at
// EVERY lockstep window boundary, not just at quiescence, against the
// database server's own state: the requests in flight, Requests - Replies,
// must equal exactly the requests the server holds (queued + claimed by
// workers).
func TestPerWindowConservationGroundTruth(t *testing.T) {
	const calls = 200
	coord, app, _, srv := rig(t, calls)

	windows, busy := 0, 0
	coord.OnWindow = func(tw uint64) {
		windows++
		inFlight := coord.Requests - coord.Replies
		if got, want := inFlight, uint64(srv.QueueDepth()+srv.InService()); got != want {
			t.Fatalf("window %d: coordinator counts %d in flight, server holds %d (%d queued + %d in service)",
				tw, got, want, srv.QueueDepth(), srv.InService())
		}
		if inFlight > 0 {
			busy++
		}
	}
	coord.Run(90_000_000)

	if windows == 0 || busy == 0 {
		t.Fatalf("check never exercised: %d windows, %d with a request in flight", windows, busy)
	}
	if coord.Requests != calls || coord.Replies != calls {
		t.Fatalf("requests/replies = %d/%d at quiescence, want %d/%d", coord.Requests, coord.Replies, calls, calls)
	}
	if got := app.Results().BusinessOps; got != calls {
		t.Fatalf("caller completed %d ops, want %d", got, calls)
	}
}
