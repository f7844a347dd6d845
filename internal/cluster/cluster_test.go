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
	const peerDB = 1

	// Client machine.
	cSpace := mem.NewAddrSpace()
	cLayout := ifetch.NewCodeLayout(cSpace)
	user := cLayout.Add("client", 64<<10, false, ifetch.Profile{})
	cNet := netsim.NewNetwork(netsim.DefaultLink())
	cNet.AddExternalPeer(peerDB)
	app := osmodel.NewEngine(osmodel.DefaultConfig(2), memsys.New(memsys.DefaultConfig(2)), cLayout, cNet, simrand.New(1))
	n := 0
	app.AddThread("caller", funcSource(func(tid int, now uint64) *trace.Op {
		if n >= calls {
			return nil
		}
		n++
		rec := trace.NewRecorder("call", true)
		rec.Instr(user.ID, 2_000)
		rec.NetCall(peerDB, 300, 1400)
		rec.Instr(user.ID, 1_000)
		return rec.Finish()
	}))

	// Database machine.
	dSpace := mem.NewAddrSpace()
	dLayout := ifetch.NewCodeLayout(dSpace)
	comps := dbserver.Components{SQL: dLayout.Add("dbms", 128<<10, false, ifetch.Profile{})}
	kern := dLayout.Add("kernel-net", 128<<10, true, ifetch.Profile{})
	dNet := netsim.NewNetwork(netsim.DefaultLink())
	ns := netsim.NewNetStack(dSpace, kern, netsim.StackConfig{SendInstr: 3_000, RecvInstr: 3_500, PerByteInstr: 0.25, HotLines: 6, BufferBytes: 2048}, simrand.New(2))
	hcfg := jvm.DefaultConfig()
	hcfg.HeapBytes = 32 << 20
	hcfg.NewGenBytes = 6 << 20
	heap := jvm.MustNewHeap(dSpace, hcfg)
	srv := dbserver.New(dbserver.DefaultConfig(), heap, comps, ns, simrand.New(3))
	db := osmodel.NewEngine(osmodel.DefaultConfig(2), memsys.New(memsys.DefaultConfig(2)), dLayout, dNet, simrand.New(4))
	for i := 0; i < 4; i++ {
		db.AddThread("db-worker", srv.WorkerSource(i))
	}

	return New(app, db, srv, netsim.DefaultLink().LatencyCycles), app, db, srv
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
	if h.Mean() < float64(2*netsim.DefaultLink().LatencyCycles) {
		t.Fatalf("round trip %v cycles beat the wire (impossible)", h.Mean())
	}
}

func TestWindowRespectsLookahead(t *testing.T) {
	coord, _, _, _ := rig(t, 1)
	if coord.window > netsim.DefaultLink().LatencyCycles {
		t.Fatalf("window %d exceeds the lookahead %d", coord.window, netsim.DefaultLink().LatencyCycles)
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
