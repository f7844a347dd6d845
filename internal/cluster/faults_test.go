package cluster

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/simrand"
)

// setFaults arms fault injection on the app→db path: node-crash and
// partition windows in inj's schedule aimed at dbPeer drop requests, and a
// dropped caller wakes after the default policy's timeout. nil disarms.
func (c *Coordinator) setFaults(inj *fault.Injector, dbPeer uint8) {
	c.faults, c.dbPeer = inj, dbPeer
	c.dropTimeout = uint64(fault.DefaultPolicy().TimeoutCycles)
}

// inFlight returns the requests accepted but not yet replied or dropped.
func (c *Coordinator) inFlight() uint64 { return c.Requests - c.Replies - c.Dropped }

// partitioned returns a coordinator with a partition (or crash) window on
// the database peer, over the standard two-machine rig.
func partitioned(t *testing.T, calls int, kind fault.Kind, at, dur uint64) (*Coordinator, func() uint64) {
	t.Helper()
	coord, app, _, _ := rig(t, calls)
	s := &fault.Schedule{Events: []fault.Event{{Kind: kind, At: at, Duration: dur, Peer: 1}}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	coord.setFaults(fault.NewInjector(s, simrand.New(9)), 1)
	return coord, func() uint64 { return app.Results().BusinessOps }
}

// TestPartitionHealConservation drives calls through a mid-run partition
// window and checks the books balance after the heal: every request is
// either replied, dropped, or still in flight — none vanish — and every
// caller eventually completes its operation (the dropped ones via their
// timeout wake).
func TestPartitionHealConservation(t *testing.T) {
	const calls = 60
	coord, ops := partitioned(t, calls, fault.Partition, 2_000_000, 5_000_000)
	coord.Run(80_000_000)

	if coord.Requests != calls {
		t.Fatalf("requests = %d, want %d", coord.Requests, calls)
	}
	if coord.Dropped == 0 {
		t.Fatal("partition window dropped nothing")
	}
	if coord.Replies == 0 {
		t.Fatal("no calls survived outside the partition")
	}
	if coord.Replies+coord.Dropped+coord.inFlight() != coord.Requests {
		t.Fatalf("accounting leak: %d replies + %d dropped + %d in flight != %d requests",
			coord.Replies, coord.Dropped, coord.inFlight(), coord.Requests)
	}
	if coord.inFlight() != 0 {
		t.Fatalf("%d requests still in flight at quiescence", coord.inFlight())
	}
	// Dropped callers resume on their timeout: every operation completes.
	if got := ops(); got != calls {
		t.Fatalf("caller completed %d ops, want %d", got, calls)
	}
}

// TestCrashFastFailsQuickly checks a crashed node answers with a fast
// connection-refused (one wire round trip), not a full timeout: the
// crash-window run finishes all calls well before the partition-window run
// would, and still conserves throughput accounting.
func TestCrashFastFailsQuickly(t *testing.T) {
	const calls = 40
	coord, ops := partitioned(t, calls, fault.NodeCrash, 1_000_000, 8_000_000)
	coord.Run(60_000_000)
	if coord.Dropped == 0 {
		t.Fatal("crash window dropped nothing")
	}
	if coord.Replies+coord.Dropped != coord.Requests {
		t.Fatalf("accounting leak: %d + %d != %d", coord.Replies, coord.Dropped, coord.Requests)
	}
	if got := ops(); got != calls {
		t.Fatalf("caller completed %d ops, want %d", got, calls)
	}
	// Fast-fail wakes after 2 wire latencies (~25k cycles); a timeout wake
	// would be 400k. With the crash covering ~20+ calls, the difference in
	// total simulated time is large: all calls must finish inside the
	// window + small change. Conservative bound: every drop cost < 100k.
	if coord.Dropped < 20 {
		t.Fatalf("crash window too short to observe fast-fail pacing (%d drops)", coord.Dropped)
	}
}

// TestPerWindowConservationGroundTruth checks the drop-path accounting at
// EVERY lockstep window boundary, not just at quiescence, against the
// database server's own state: the coordinator's in-flight count must equal
// exactly the requests the server holds (queued + claimed by workers).
// Partition, packet-loss, and crash windows all run mid-stream, so both
// drop legs are exercised — requests lost on the way out and replies lost
// on the way back after the database did the work.
func TestPerWindowConservationGroundTruth(t *testing.T) {
	const calls = 200
	coord, app, _, srv := rig(t, calls)
	s := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Partition, At: 2_000_000, Duration: 4_000_000, Peer: 1},
		{Kind: fault.PacketLoss, At: 7_000_000, Duration: 5_000_000, Peer: 1, Magnitude: 0.5},
		{Kind: fault.NodeCrash, At: 14_000_000, Duration: 3_000_000, Peer: 1},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	coord.setFaults(fault.NewInjector(s, simrand.New(9)), 1)

	windows := 0
	coord.OnWindow = func(tw uint64) {
		windows++
		if coord.Replies+coord.Dropped+coord.inFlight() != coord.Requests {
			t.Fatalf("window %d: %d replies + %d dropped + %d in flight != %d requests",
				tw, coord.Replies, coord.Dropped, coord.inFlight(), coord.Requests)
		}
		if got, want := coord.inFlight(), uint64(srv.QueueDepth()+srv.InService()); got != want {
			t.Fatalf("window %d: coordinator counts %d in flight, server holds %d (%d queued + %d in service)",
				tw, got, want, srv.QueueDepth(), srv.InService())
		}
	}
	coord.Run(90_000_000)

	if windows == 0 {
		t.Fatal("OnWindow never fired")
	}
	if coord.Dropped == 0 || coord.Replies == 0 {
		t.Fatalf("schedule not exercised: %d dropped, %d replied", coord.Dropped, coord.Replies)
	}
	if coord.DroppedReplies == 0 {
		t.Fatal("no reply was lost in flight: the reply-drop path never ran")
	}
	if coord.DroppedReplies == coord.Dropped {
		t.Fatal("no request was lost on the way out: the send-drop path never ran")
	}
	if coord.inFlight() != 0 {
		t.Fatalf("%d requests leaked at quiescence", coord.inFlight())
	}
	// Every dropped caller resumed via its timeout wake and finished.
	if got := app.Results().BusinessOps; got != calls {
		t.Fatalf("caller completed %d ops, want %d", got, calls)
	}
}

// TestFaultedCoSimDeterministic checks the same seed and schedule
// reproduce identical fault accounting.
func TestFaultedCoSimDeterministic(t *testing.T) {
	run := func() [3]uint64 {
		coord, ops := partitioned(t, 30, fault.Partition, 1_500_000, 4_000_000)
		coord.Run(60_000_000)
		return [3]uint64{coord.Replies, coord.Dropped, ops()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("faulted co-simulation not deterministic: %v != %v", a, b)
	}
}

// TestNoFaultsPathUnchanged checks a nil injector leaves the coordinator's
// behavior identical to an un-faulted one.
func TestNoFaultsPathUnchanged(t *testing.T) {
	plain, appPlain, _, _ := rig(t, 10)
	plain.Run(40_000_000)

	armed, appArmed, _, _ := rig(t, 10)
	armed.setFaults(nil, 1)
	armed.Run(40_000_000)

	if plain.Replies != armed.Replies || armed.Dropped != 0 {
		t.Fatalf("nil injector changed behavior: %d/%d vs %d/%d+%d",
			plain.Requests, plain.Replies, armed.Requests, armed.Replies, armed.Dropped)
	}
	if appPlain.Results().BusinessOps != appArmed.Results().BusinessOps {
		t.Fatal("nil injector changed completed ops")
	}
}
