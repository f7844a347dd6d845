package osmodel

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/db"
	"repro/internal/ifetch"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// funcSource adapts a function to OpSource.
type funcSource func(tid int, now uint64) *trace.Op

func (f funcSource) NextOp(tid int, now uint64) *trace.Op { return f(tid, now) }

// scriptSource plays a fixed list of operations, then ends the thread.
type scriptSource struct {
	Ops []*trace.Op
	i   int
}

func (s *scriptSource) NextOp(tid int, now uint64) *trace.Op {
	if s.i >= len(s.Ops) {
		return nil
	}
	op := s.Ops[s.i]
	s.i++
	return op
}

// rig bundles a small machine for engine tests.
type rig struct {
	eng    *Engine
	layout *ifetch.CodeLayout
	space  *mem.AddrSpace
	user   *ifetch.Component
	kern   *ifetch.Component
	data   mem.Region
}

func newRig(t *testing.T, cpus int, net *netsim.Network) *rig {
	t.Helper()
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 64<<10, false, hotCold)
	kern := layout.Add("kernel", 64<<10, true, hotCold)
	mcfg := memsys.DefaultConfig(cpus)
	mcfg.L1I = cache.Config{Name: "L1I", SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64}
	mcfg.L1D = cache.Config{Name: "L1D", SizeBytes: 8 << 10, Assoc: 2, BlockBytes: 64}
	mcfg.L2 = cache.Config{Name: "L2", SizeBytes: 128 << 10, Assoc: 4, BlockBytes: 64}
	cfg := DefaultConfig(cpus)
	eng := NewEngine(cfg, memsys.New(mcfg), layout, net, simrand.New(11))
	return &rig{
		eng:    eng,
		layout: layout,
		space:  space,
		user:   user,
		kern:   kern,
		data:   space.Reserve("testdata", 1<<20),
	}
}

func op(tag string, business bool, build func(*trace.Recorder)) *trace.Op {
	rec := trace.NewRecorder(tag)
	rec.Reset(tag, business)
	build(rec)
	return rec.Finish()
}

func TestSingleThreadAccounting(t *testing.T) {
	r := newRig(t, 1, nil)
	src := &scriptSource{Ops: []*trace.Op{
		op("work", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 10_000)
			rec.Read(r.data.Base, 64)
		}),
	}}
	r.eng.AddThread("worker", src)
	r.eng.Run(10_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 1 || res.OpsByTag["work"] != 1 {
		t.Fatalf("ops = %+v", res)
	}
	if res.Modes.User < 10_000 {
		t.Fatalf("user cycles = %d", res.Modes.User)
	}
	if res.Modes.System != 0 {
		t.Fatalf("system cycles = %d for pure user work", res.Modes.System)
	}
	if res.CPU.Instructions != 10_000 {
		t.Fatalf("instructions = %d", res.CPU.Instructions)
	}
	if !r.eng.ThreadsDone() {
		t.Fatal("thread not done")
	}
}

func TestKernelModeAccounting(t *testing.T) {
	r := newRig(t, 1, nil)
	src := &scriptSource{Ops: []*trace.Op{
		op("sys", false, func(rec *trace.Recorder) {
			rec.Instr(r.kern.ID, 5_000)
			rec.Read(r.data.Base, 8) // data ref inherits kernel mode
			rec.Instr(r.user.ID, 5_000)
		}),
	}}
	r.eng.AddThread("w", src)
	r.eng.Run(10_000_000)
	res := r.eng.Results()
	if res.Modes.System < 5_000 {
		t.Fatalf("system = %d", res.Modes.System)
	}
	if res.Modes.User < 5_000 {
		t.Fatalf("user = %d", res.Modes.User)
	}
}

func TestTwoThreadsShareOneCPU(t *testing.T) {
	r := newRig(t, 1, nil)
	mk := func() *scriptSource {
		var ops []*trace.Op
		for i := 0; i < 5; i++ {
			ops = append(ops, op("chunk", true, func(rec *trace.Recorder) {
				rec.Instr(r.user.ID, 200_000) // two quanta each
			}))
		}
		return &scriptSource{Ops: ops}
	}
	r.eng.AddThread("a", mk())
	r.eng.AddThread("b", mk())
	r.eng.Run(50_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 10 {
		t.Fatalf("ops = %d, want 10 (both threads must progress)", res.BusinessOps)
	}
}

func TestMutualExclusionAndLockWait(t *testing.T) {
	r := newRig(t, 2, nil)
	lockAddr := r.data.Base
	mk := func() *scriptSource {
		var ops []*trace.Op
		for i := 0; i < 20; i++ {
			ops = append(ops, op("critical", true, func(rec *trace.Recorder) {
				rec.LockAcquire(42, lockAddr)
				rec.Write(lockAddr, 8)
				rec.Instr(r.user.ID, 50_000) // long critical section
				rec.Write(lockAddr, 8)
				rec.LockRelease(42, lockAddr)
			}))
		}
		return &scriptSource{Ops: ops}
	}
	r.eng.AddThread("a", mk())
	r.eng.AddThread("b", mk())
	r.eng.Run(100_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 40 {
		t.Fatalf("ops = %d, want 40", res.BusinessOps)
	}
	if res.LockWaitCycles == 0 {
		t.Fatal("no lock contention recorded for serialized critical sections")
	}
	// With one big lock, the second CPU is mostly idle.
	if res.Modes.Idle == 0 {
		t.Fatal("no idle time despite full serialization on 2 CPUs")
	}
}

func TestSpinLockChargesBusyTime(t *testing.T) {
	r := newRig(t, 2, nil)
	lockAddr := r.data.Base
	mk := func() *scriptSource {
		var ops []*trace.Op
		for i := 0; i < 20; i++ {
			ops = append(ops, op("k", true, func(rec *trace.Recorder) {
				rec.LockAcquireSpin(43, lockAddr)
				rec.Instr(r.kern.ID, 30_000)
				rec.LockRelease(43, lockAddr)
			}))
		}
		return &scriptSource{Ops: ops}
	}
	r.eng.AddThread("a", mk())
	r.eng.AddThread("b", mk())
	r.eng.Run(100_000_000)
	res := r.eng.Results()
	// System time must exceed the raw kernel path (spin cycles add in).
	if res.Modes.System <= 40*30_000 {
		t.Fatalf("system = %d, expected spin overhead above %d", res.Modes.System, 40*30_000)
	}
}

func TestNetCallBlocksAndChargesIOWait(t *testing.T) {
	net := netsim.NewNetwork()
	net.AddPeer(2, db.NewServer(db.Config{Workers: 1, BaseServiceCycles: 500_000}, simrand.New(4)))
	r := newRig(t, 1, net)
	src := &scriptSource{Ops: []*trace.Op{
		op("call", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 1_000)
			rec.NetCall(2, 256, 1024)
			rec.Instr(r.user.ID, 1_000)
		}),
	}}
	r.eng.AddThread("w", src)
	r.eng.Run(50_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 1 {
		t.Fatalf("op did not complete: %+v", res)
	}
	// The peer's one service draw, from a generator seeded like its own.
	if svc := db.Jitter(500_000, simrand.New(4)); res.Modes.IOWait < svc {
		t.Fatalf("iowait = %d, want >= peer service time %d", res.Modes.IOWait, svc)
	}
}

func TestThinkSleeps(t *testing.T) {
	r := newRig(t, 1, nil)
	src := &scriptSource{Ops: []*trace.Op{
		op("nap", true, func(rec *trace.Recorder) {
			rec.Think(1_000_000)
			rec.Instr(r.user.ID, 100)
		}),
	}}
	r.eng.AddThread("w", src)
	r.eng.Run(10_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 1 {
		t.Fatal("op incomplete")
	}
	if res.Modes.Idle < 900_000 {
		t.Fatalf("idle = %d, want ~1M from think time", res.Modes.Idle)
	}
}

func TestGCPauseStopsTheWorld(t *testing.T) {
	r := newRig(t, 4, nil)
	gcRec := trace.NewRecorder("gc")
	gcRec.Instr(r.user.ID, 500_000)
	gc := &trace.GC{Items: gcRec.Finish().Items, LiveBytes: 1 << 20}

	trigger := &scriptSource{Ops: []*trace.Op{
		op("alloc", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 10_000)
			rec.GCPause(gc)
			rec.Instr(r.user.ID, 10_000)
		}),
	}}
	r.eng.AddThread("mutator", trigger)
	// Three other busy threads on the other CPUs.
	for i := 0; i < 3; i++ {
		var ops []*trace.Op
		for j := 0; j < 50; j++ {
			ops = append(ops, op("bg", true, func(rec *trace.Recorder) {
				rec.Instr(r.user.ID, 50_000)
			}))
		}
		r.eng.AddThread("bg", &scriptSource{Ops: ops})
	}
	r.eng.Run(20_000_000)
	res := r.eng.Results()
	if res.GCCount != 1 {
		t.Fatalf("GC count = %d", res.GCCount)
	}
	if res.GCWall < 500_000 {
		t.Fatalf("GC wall = %d", res.GCWall)
	}
	if res.Modes.GCIdle < 3*400_000 {
		t.Fatalf("GC idle = %d, want roughly 3 CPUs * pause", res.Modes.GCIdle)
	}
}

func TestPinnedThreadsAndPSetAccounting(t *testing.T) {
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 64<<10, false, hotCold)
	kern := layout.Add("kernel", 64<<10, true, hotCold)
	_ = kern
	mcfg := memsys.DefaultConfig(4)
	cfg := DefaultConfig(4)
	cfg.PSet = []int{0, 1} // workload restricted to half the machine
	eng := NewEngine(cfg, memsys.New(mcfg), layout, nil, simrand.New(5))

	var ops []*trace.Op
	for j := 0; j < 10; j++ {
		ops = append(ops, op("w", true, func(rec *trace.Recorder) {
			rec.Instr(user.ID, 100_000)
		}))
	}
	eng.AddThread("worker", &scriptSource{Ops: ops})
	// A pinned thread outside the pset; its cycles must not appear in
	// Results.
	var bg []*trace.Op
	for j := 0; j < 10; j++ {
		bg = append(bg, op("bg", false, func(rec *trace.Recorder) {
			rec.Instr(user.ID, 100_000)
		}))
	}
	eng.AddPinnedThread("outsider", &scriptSource{Ops: bg}, 3)
	eng.Run(20_000_000)
	res := eng.Results()
	if res.BusinessOps != 10 {
		t.Fatalf("ops = %d", res.BusinessOps)
	}
	// PSet has 2 CPUs; worker used ~1M cycles; outsider used ~1M on CPU 3
	// which is outside the set. User cycles must reflect only the worker.
	if res.CPU.Instructions != 10*100_000 {
		t.Fatalf("pset instructions = %d, outsider leaked into accounting", res.CPU.Instructions)
	}
}

func TestOSDaemonsGenerateC2CAtOneProcessor(t *testing.T) {
	// The Figure 8 anomaly: cache-to-cache transfers with the workload on
	// one CPU, because OS daemons run everywhere.
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 64<<10, false, hotCold)
	kern := layout.Add("kernel", 64<<10, true, hotCold)
	mcfg := memsys.DefaultConfig(4)
	cfg := DefaultConfig(4)
	cfg.PSet = []int{0}
	rng := simrand.New(6)
	eng := NewEngine(cfg, memsys.New(mcfg), layout, nil, rng)
	AddOSDaemons(eng, space, kern, rng)

	var ops []*trace.Op
	for j := 0; j < 20; j++ {
		ops = append(ops, op("w", true, func(rec *trace.Recorder) {
			rec.Instr(user.ID, 200_000)
		}))
	}
	eng.AddThread("worker", &scriptSource{Ops: ops})
	eng.Run(60_000_000)
	if c2c := eng.hier.Bus().Stats.C2CTransfers; c2c == 0 {
		t.Fatal("no cache-to-cache transfers from background OS activity")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results {
		net := netsim.NewNetwork()
		net.AddPeer(2, db.NewServer(db.DefaultDatabaseConfig(), simrand.New(77)))
		r := newRig(t, 2, net)
		lock := r.data.Base
		for i := 0; i < 3; i++ {
			var ops []*trace.Op
			for j := 0; j < 10; j++ {
				ops = append(ops, op("w", true, func(rec *trace.Recorder) {
					rec.Instr(r.user.ID, 10_000)
					rec.LockAcquire(7, lock)
					rec.Write(lock, 8)
					rec.Instr(r.user.ID, 5_000)
					rec.Write(lock, 8)
					rec.LockRelease(7, lock)
					rec.NetCall(2, 128, 512)
					rec.Read(r.data.Base+4096, 256)
				}))
			}
			r.eng.AddThread("w", &scriptSource{Ops: ops})
		}
		r.eng.Run(100_000_000)
		return r.eng.Results()
	}
	a, b := run(), run()
	if a.BusinessOps != b.BusinessOps || a.Modes != b.Modes ||
		a.CPU != b.CPU || a.LockWaitCycles != b.LockWaitCycles {
		t.Fatalf("engine not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestResetStatsClearsMeasurement(t *testing.T) {
	r := newRig(t, 1, nil)
	var ops []*trace.Op
	for j := 0; j < 10; j++ {
		ops = append(ops, op("w", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 100_000)
		}))
	}
	r.eng.AddThread("w", &scriptSource{Ops: ops})
	r.eng.Run(500_000)
	r.eng.ResetStats()
	res := r.eng.Results()
	if res.BusinessOps != 0 || res.Modes.Total() != 0 || res.CPU.Instructions != 0 {
		t.Fatalf("reset incomplete: %+v", res)
	}
	r.eng.Run(20_000_000)
	if r.eng.Results().BusinessOps == 0 {
		t.Fatal("engine dead after reset")
	}
}

// TestNewEngineRejectsWideMachines: a thread's affinity is a uint64 mask,
// so a machine past 64 CPUs would hold CPUs no pinned thread could run on.
func TestNewEngineRejectsWideMachines(t *testing.T) {
	for _, tc := range []struct {
		cpus, perL2 int
		ok          bool
	}{
		{16, 1, true},
		{64, 2, true},
		{65, 5, false},
		{128, 4, false},
	} {
		mcfg := memsys.DefaultConfig(tc.cpus)
		mcfg.CPUsPerL2 = tc.perL2
		mcfg.L2 = cache.Config{Name: "L2", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64}
		hier := memsys.New(mcfg)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			NewEngine(DefaultConfig(tc.cpus), hier, ifetch.NewCodeLayout(mem.NewAddrSpace()), nil, simrand.New(1))
			return false
		}()
		if panicked == tc.ok {
			t.Errorf("NewEngine with %d CPUs: panicked=%v, want ok=%v", tc.cpus, panicked, tc.ok)
		}
	}
}

func TestRecursiveLockPanics(t *testing.T) {
	r := newRig(t, 1, nil)
	src := &scriptSource{Ops: []*trace.Op{
		op("bad", false, func(rec *trace.Recorder) {
			rec.LockAcquire(9, r.data.Base)
			rec.LockAcquire(9, r.data.Base)
		}),
	}}
	r.eng.AddThread("w", src)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on recursive acquisition")
		}
	}()
	r.eng.Run(1_000_000)
}

func TestModesAddAndTotal(t *testing.T) {
	a := Modes{User: 1, System: 2, IOWait: 3, Idle: 4, GCIdle: 5}
	b := a
	a.Add(&b)
	if a.Total() != 30 || a.Busy() != 6 {
		t.Fatalf("modes math wrong: %+v", a)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	net := netsim.NewNetwork()
	net.AddPeer(2, db.NewServer(db.Config{Workers: 8, BaseServiceCycles: 200_000}, simrand.New(4)))
	r := newRig(t, 4, net)
	// Four threads, a 2-unit pool held across a long remote call: at most
	// two calls can overlap, so the run takes at least two serial rounds.
	for i := 0; i < 4; i++ {
		src := &scriptSource{Ops: []*trace.Op{
			op("pooled", true, func(rec *trace.Recorder) {
				rec.SemAcquire(77, 2)
				rec.NetCall(2, 64, 64)
				rec.SemRelease(77)
			}),
		}}
		r.eng.AddThread("w", src)
	}
	r.eng.Run(100_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 4 {
		t.Fatalf("ops = %d", res.BusinessOps)
	}
	if res.LockBlocks < 2 {
		t.Fatalf("semaphore never blocked: %d", res.LockBlocks)
	}
}

func TestSemaphoreReleaseUnblocksWaiter(t *testing.T) {
	r := newRig(t, 2, nil)
	mk := func() *scriptSource {
		var ops []*trace.Op
		for i := 0; i < 10; i++ {
			ops = append(ops, op("pooled", true, func(rec *trace.Recorder) {
				rec.SemAcquire(88, 1)
				rec.Instr(r.user.ID, 20_000)
				rec.SemRelease(88)
			}))
		}
		return &scriptSource{Ops: ops}
	}
	r.eng.AddThread("a", mk())
	r.eng.AddThread("b", mk())
	r.eng.Run(100_000_000)
	if got := r.eng.Results().BusinessOps; got != 20 {
		t.Fatalf("ops = %d, want 20 (waiters must be granted units)", got)
	}
}

func TestParallelGCShortensPause(t *testing.T) {
	run := func(gcThreads int) (uint64, uint64) {
		space := mem.NewAddrSpace()
		layout := ifetch.NewCodeLayout(space)
		user := layout.Add("app", 64<<10, false, hotCold)
		cfg := DefaultConfig(4)
		cfg.GCThreads = gcThreads
		eng := NewEngine(cfg, memsys.New(memsys.DefaultConfig(4)), layout, nil, simrand.New(5))

		gcRec := trace.NewRecorder("gc")
		for i := 0; i < 64; i++ {
			// Interleave copy reads/writes like a real collector trace so
			// the items do not coalesce into one segment.
			gcRec.Instr(user.ID, 20_000)
			gcRec.Read(uint64(0x100000+i*4096), 256)
			gcRec.Write(uint64(0x200000+i*4096), 256)
		}
		gc := &trace.GC{Items: gcRec.Finish().Items}
		src := &scriptSource{Ops: []*trace.Op{
			op("alloc", true, func(rec *trace.Recorder) {
				rec.Instr(user.ID, 1_000)
				rec.GCPause(gc)
			}),
		}}
		eng.AddThread("mutator", src)
		eng.Run(50_000_000)
		res := eng.Results()
		return res.GCWall, res.Modes.GCIdle
	}
	serialWall, _ := run(1)
	parWall, _ := run(4)
	if parWall >= serialWall/2 {
		t.Fatalf("4-way parallel GC wall %d not well under serial %d", parWall, serialWall)
	}
}

func TestParallelGCAccountingSums(t *testing.T) {
	space := mem.NewAddrSpace()
	layout := ifetch.NewCodeLayout(space)
	user := layout.Add("app", 64<<10, false, hotCold)
	cfg := DefaultConfig(4)
	cfg.GCThreads = 2
	eng := NewEngine(cfg, memsys.New(memsys.DefaultConfig(4)), layout, nil, simrand.New(6))
	gcRec := trace.NewRecorder("gc")
	for i := 0; i < 16; i++ {
		gcRec.Instr(user.ID, 10_000)
	}
	gc := &trace.GC{Items: gcRec.Finish().Items}
	for i := 0; i < 4; i++ {
		var ops []*trace.Op
		for j := 0; j < 20; j++ {
			ops = append(ops, op("w", true, func(rec *trace.Recorder) {
				rec.Instr(user.ID, 30_000)
			}))
		}
		if i == 0 {
			ops = append(ops[:10], append([]*trace.Op{
				op("alloc", true, func(rec *trace.Recorder) { rec.GCPause(gc) }),
			}, ops[10:]...)...)
		}
		eng.AddThread("w", &scriptSource{Ops: ops})
	}
	const horizon = 10_000_000
	eng.Run(horizon)
	res := eng.Results()
	// Accounting must cover roughly CPUs * horizon (threads finish early,
	// trailing idle is charged at the horizon).
	total := float64(res.Modes.Total())
	want := float64(4 * horizon)
	if total < 0.97*want || total > 1.03*want {
		t.Fatalf("mode accounting covers %.0f of %.0f cycles", total, want)
	}
}

func TestEmptyOpsCannotWedgeEngine(t *testing.T) {
	r := newRig(t, 1, nil)
	n := 0
	src := funcSource(func(tid int, now uint64) *trace.Op {
		n++
		return op("empty", true, func(*trace.Recorder) {}) // zero items
	})
	r.eng.AddThread("w", src)
	r.eng.Run(100_000) // must return, not loop forever
	if n == 0 {
		t.Fatal("source never called")
	}
}

func TestBoundThreadsAreNeverStolen(t *testing.T) {
	// One long-running thread sliced mid-quantum must stay on its CPU even
	// while another CPU idles.
	r := newRig(t, 2, nil)
	var ops []*trace.Op
	for i := 0; i < 40; i++ {
		ops = append(ops, op("w", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 50_000)
		}))
	}
	r.eng.AddThread("solo", &scriptSource{Ops: ops})
	r.eng.Run(5_000_000)
	res := r.eng.Results()
	// CPU 1 must have been idle the whole time: if the bound thread were
	// stolen back and forth, both CPUs would show busy time.
	if res.Modes.Busy() > 3_000_000 {
		t.Fatalf("busy cycles %d suggest the single thread ran on both CPUs concurrently", res.Modes.Busy())
	}
	if res.BusinessOps != 40 {
		t.Fatalf("ops = %d", res.BusinessOps)
	}
}

func TestSemaphoreFIFOGrants(t *testing.T) {
	// Three threads contend for a 1-unit pool; grants must be FIFO, so all
	// three finish (no starvation).
	r := newRig(t, 3, nil)
	for i := 0; i < 3; i++ {
		var ops []*trace.Op
		for j := 0; j < 5; j++ {
			ops = append(ops, op("pooled", true, func(rec *trace.Recorder) {
				rec.SemAcquire(99, 1)
				rec.Instr(r.user.ID, 30_000)
				rec.SemRelease(99)
			}))
		}
		r.eng.AddThread("w", &scriptSource{Ops: ops})
	}
	r.eng.Run(50_000_000)
	if got := r.eng.Results().BusinessOps; got != 15 {
		t.Fatalf("ops = %d, want 15", got)
	}
}

func TestWakeupPullbackUsesIdleHomeCPU(t *testing.T) {
	// A thread that sleeps wakes on its home CPU when that CPU is idle.
	net := netsim.NewNetwork()
	net.AddPeer(2, db.NewServer(db.Config{Workers: 1, BaseServiceCycles: 100_000}, simrand.New(4)))
	r := newRig(t, 2, net)
	var ops []*trace.Op
	for j := 0; j < 20; j++ {
		ops = append(ops, op("call", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 5_000)
			rec.NetCall(2, 64, 64)
		}))
	}
	r.eng.AddThread("w", &scriptSource{Ops: ops})
	r.eng.Run(50_000_000)
	res := r.eng.Results()
	if res.BusinessOps != 20 {
		t.Fatalf("ops = %d", res.BusinessOps)
	}
	// All busy time should sit on one CPU (home), the other fully idle:
	// with pull-back the sleeper keeps returning home.
	perCPU := 0
	for c := 0; c < 2; c++ {
		if r.eng.hier.L1I(c).Stats.Fetches > 0 {
			perCPU++
		}
	}
	if perCPU != 1 {
		t.Fatalf("thread's fetches touched %d CPUs' caches, want 1 (affinity)", perCPU)
	}
}

func TestLatencyHistogramRecorded(t *testing.T) {
	r := newRig(t, 1, nil)
	var ops []*trace.Op
	for j := 0; j < 5; j++ {
		ops = append(ops, op("tagged", true, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 10_000)
		}))
	}
	r.eng.AddThread("w", &scriptSource{Ops: ops})
	r.eng.Run(10_000_000)
	res := r.eng.Results()
	h := res.LatencyByTag["tagged"]
	if h == nil || h.Count() != 5 {
		t.Fatalf("latency histogram missing or wrong count: %+v", h)
	}
	if h.Mean() < 10_000 {
		t.Fatalf("mean latency %v below pure execution time", h.Mean())
	}
}

// TestAccountingConservation is the engine's core bookkeeping invariant:
// across a randomized mix of compute, memory, locks, I/O, sleeps, and GC,
// every processor cycle of the horizon lands in exactly one accounting
// bucket (busy, I/O wait, idle, or GC idle), and the lock-wait cycles split
// exactly into the monitor, spin and semaphore classes.
func TestAccountingConservation(t *testing.T) {
	net := netsim.NewNetwork()
	net.AddPeer(2, db.NewServer(db.Config{Workers: 2, BaseServiceCycles: 80_000}, simrand.New(4)))
	r := newRig(t, 4, net)

	gcRec := trace.NewRecorder("gc")
	for i := 0; i < 8; i++ {
		gcRec.Instr(r.user.ID, 5_000)
		gcRec.Read(uint64(0x300000+i*4096), 128)
	}
	gc := &trace.GC{Items: gcRec.Finish().Items}

	for tid := 0; tid < 6; tid++ {
		rng := simrand.New(uint64(tid) + 55)
		r.eng.AddThread("w", funcSource(func(id int, now uint64) *trace.Op {
			rec := trace.NewRecorder("op")
			rec.Reset("op", true)
			rec.Instr(r.user.ID, uint32(1_000+rng.Intn(20_000)))
			switch rng.Intn(7) {
			case 0:
				rec.LockAcquire(7, r.data.Base)
				rec.Instr(r.user.ID, 3_000)
				rec.LockRelease(7, r.data.Base)
			case 1:
				rec.NetCall(2, 128, 256)
			case 2:
				rec.Think(uint32(rng.Intn(50_000)))
			case 3:
				rec.SemAcquire(9, 1)
				rec.Instr(r.kern.ID, 2_000)
				rec.SemRelease(9)
			case 4:
				if rng.Bool(0.1) {
					rec.GCPause(gc)
				}
			case 5:
				rec.LockAcquireSpin(8, r.data.Base+64)
				rec.Instr(r.kern.ID, 1_500)
				rec.LockRelease(8, r.data.Base+64)
			default:
				rec.Read(r.data.Base+uint64(rng.Intn(1<<14))*64, 64)
				rec.Write(r.data.Base+uint64(rng.Intn(1<<14))*64, 64)
			}
			return rec.Finish()
		}))
	}
	const horizon = 20_000_000
	r.eng.Run(horizon)
	res := r.eng.Results()
	total := float64(res.Modes.Total())
	want := float64(4 * horizon)
	// Runs can overshoot the horizon by at most one engine slice per CPU.
	if total < 0.98*want || total > 1.02*want {
		t.Fatalf("accounting covers %.0f cycles of %.0f (%.1f%%)", total, want, 100*total/want)
	}
	if res.BusinessOps == 0 {
		t.Fatal("randomized workload made no progress")
	}
	if res.WaitMonitor == 0 || res.WaitSpin == 0 || res.WaitSem == 0 {
		t.Fatalf("a wait class never contended: monitor %d spin %d sem %d",
			res.WaitMonitor, res.WaitSpin, res.WaitSem)
	}
	if sum := res.WaitMonitor + res.WaitSpin + res.WaitSem; sum != res.LockWaitCycles {
		t.Fatalf("wait classes monitor %d + spin %d + sem %d = %d, lock wait %d",
			res.WaitMonitor, res.WaitSpin, res.WaitSem, sum, res.LockWaitCycles)
	}
}
