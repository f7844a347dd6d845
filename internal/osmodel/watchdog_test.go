package osmodel

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TestWatchdogDeadlock drives the classic AB/BA deadlock and checks the
// watchdog converts the would-be hang into a diagnostic report.
func TestWatchdogDeadlock(t *testing.T) {
	r := newRig(t, 2, nil)
	addrA, addrB := r.data.Base, r.data.Base+64

	// Each thread takes its first lock, spins long enough for the other to
	// do the same, then blocks forever on the other's lock.
	mk := func(first, second uint64, firstAddr, secondAddr mem.Addr) *scriptSource {
		return &scriptSource{Ops: []*trace.Op{
			op("deadlock", false, func(rec *trace.Recorder) {
				rec.LockAcquire(first, firstAddr)
				rec.Instr(r.user.ID, 500_000)
				rec.LockAcquire(second, secondAddr)
				rec.LockRelease(second, secondAddr)
				rec.LockRelease(first, firstAddr)
			}),
		}}
	}
	r.eng.AddThread("ab", mk(1, 2, addrA, addrB))
	r.eng.AddThread("ba", mk(2, 1, addrB, addrA))
	r.eng.SetWatchdog(50_000_000)
	r.eng.Run(1_000_000_000)

	rep := r.eng.WatchdogTripped()
	if rep == nil {
		t.Fatal("deadlocked run finished without tripping the watchdog")
	}
	if rep.Reason != "deadlock" {
		t.Fatalf("reason = %q, want deadlock", rep.Reason)
	}
	if rep.Cycle >= 1_000_000_000 {
		t.Fatalf("watchdog fired at the horizon (%d): it spun instead of detecting", rep.Cycle)
	}
	dump := rep.String()
	if !strings.Contains(dump, "blk-lock") {
		t.Fatalf("report does not show blocked threads:\n%s", dump)
	}
	if !strings.Contains(dump, "waiters=") {
		t.Fatalf("report does not show the lock table:\n%s", dump)
	}

	// The report persists across further Run slices.
	r.eng.Run(2_000_000_000)
	if r.eng.WatchdogTripped() != rep {
		t.Fatal("report did not persist across slices")
	}
}

// TestWatchdogDisarmedRunsToHorizon checks default behavior is unchanged:
// with no watchdog armed, a run with an eternally blocked thread still
// advances to the horizon instead of returning early.
func TestWatchdogDisarmedRunsToHorizon(t *testing.T) {
	net := netsim.NewNetwork(netsim.DefaultLink())
	net.AddExternalPeer(3)
	r := newRig(t, 1, net)
	r.eng.OnExternalCall = func(tid int, peer uint8, reqBytes, respBytes uint32, now uint64) {
		// Lost wakeup: the coordinator never answers.
	}
	r.eng.AddThread("caller", &scriptSource{Ops: []*trace.Op{
		op("call", false, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 1000)
			rec.NetCall(3, 100, 100)
		}),
	}})
	for h := uint64(5_000_000); h <= 50_000_000; h += 5_000_000 {
		r.eng.Run(h)
	}
	if r.eng.WatchdogTripped() != nil {
		t.Fatal("disarmed watchdog tripped")
	}
	if got := r.eng.Now(); got < 50_000_000 {
		t.Fatalf("engine stopped early at %d without a watchdog", got)
	}
}

// TestWatchdogStallDetection models a lost external wakeup: a thread waits
// on a co-simulated peer whose reply never comes. That is not a provable
// deadlock (a wake could still arrive), so the threshold path must fire
// once enough idle slices accumulate.
func TestWatchdogStallDetection(t *testing.T) {
	net := netsim.NewNetwork(netsim.DefaultLink())
	net.AddExternalPeer(3)
	r := newRig(t, 1, net)
	r.eng.OnExternalCall = func(tid int, peer uint8, reqBytes, respBytes uint32, now uint64) {}
	r.eng.AddThread("caller", &scriptSource{Ops: []*trace.Op{
		op("call", false, func(rec *trace.Recorder) {
			rec.Instr(r.user.ID, 1000)
			rec.NetCall(3, 100, 100)
			rec.Instr(r.user.ID, 1000)
		}),
	}})
	r.eng.SetWatchdog(10_000_000)
	for h := uint64(5_000_000); h <= 100_000_000; h += 5_000_000 {
		r.eng.Run(h)
	}

	rep := r.eng.WatchdogTripped()
	if rep == nil {
		t.Fatal("stalled run never tripped the watchdog")
	}
	if rep.Reason != "stall" {
		t.Fatalf("reason = %q, want stall", rep.Reason)
	}
	if !strings.Contains(rep.String(), "blk-io") {
		t.Fatalf("report does not show the externally blocked thread:\n%s", rep)
	}
}

// TestWatchdogQuietOnHealthyRun checks a normal contended run never trips.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	r := newRig(t, 2, nil)
	for i := 0; i < 3; i++ {
		ops := make([]*trace.Op, 50)
		for j := range ops {
			ops[j] = op("work", true, func(rec *trace.Recorder) {
				rec.LockAcquire(9, r.data.Base+128)
				rec.Instr(r.user.ID, 5_000)
				rec.LockRelease(9, r.data.Base+128)
				rec.Think(20_000)
			})
		}
		r.eng.AddThread("w", &scriptSource{Ops: ops})
	}
	r.eng.SetWatchdog(10_000_000)
	r.eng.Run(500_000_000)
	if rep := r.eng.WatchdogTripped(); rep != nil {
		t.Fatalf("healthy run tripped the watchdog:\n%s", rep)
	}
	if !r.eng.ThreadsDone() {
		t.Fatal("threads did not finish")
	}
}

// TestDebugLocksTable pins the watchdog report's lock table byte for byte.
// Thread a holds semaphore 7 (capacity 1) and waits on monitor 7; thread b
// holds monitor 7 and waits on the semaphore — a provable deadlock. Both
// IDs are 7, so the table also shows that lock and semaphore IDs are
// separate spaces. Lock 3 (released), semaphore 5 (released) and
// semaphore 9 (held, no waiters) are left out; lock 0x10 (held, no
// waiters) is listed.
func TestDebugLocksTable(t *testing.T) {
	r := newRig(t, 2, nil)
	addr := r.data.Base
	r.eng.AddThread("a", &scriptSource{Ops: []*trace.Op{
		op("a", false, func(rec *trace.Recorder) {
			rec.SemAcquire(5, 2)
			rec.SemRelease(5)
			rec.LockAcquire(3, addr)
			rec.LockRelease(3, addr)
			rec.SemAcquire(9, 2)
			rec.SemAcquire(7, 1)
			rec.Instr(r.user.ID, 500_000)
			rec.LockAcquire(7, addr+64)
		}),
	}})
	r.eng.AddThread("b", &scriptSource{Ops: []*trace.Op{
		op("b", false, func(rec *trace.Recorder) {
			rec.LockAcquire(0x10, addr+128)
			rec.LockAcquire(7, addr+64)
			rec.Instr(r.user.ID, 500_000)
			rec.SemAcquire(7, 1)
		}),
	}})
	r.eng.SetWatchdog(50_000_000)
	r.eng.Run(1_000_000_000)

	rep := r.eng.WatchdogTripped()
	if rep == nil || rep.Reason != "deadlock" {
		t.Fatalf("want a deadlock report, got %v", rep)
	}
	want := []string{
		"lock 0x7 held=true spin=false owner=b#1 waiters=[a#0]",
		"lock 0x10 held=true spin=false owner=b#1 waiters=[]",
		"sem 0x7 available=0 waiters=[b#1]",
	}
	for _, got := range [][]string{rep.Locks, r.eng.DebugLocks()} {
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("lock table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
