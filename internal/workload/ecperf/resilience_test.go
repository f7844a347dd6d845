package ecperf

import (
	"strings"
	"testing"

	"repro/internal/appserver"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// resilient arms the workload with a resilient caller over the given fault
// schedule (nil = policy machinery only, no injected faults).
func resilient(t *testing.T, w *Workload, s *fault.Schedule) *appserver.Caller {
	t.Helper()
	var inj *fault.Injector
	if s != nil {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		inj = fault.NewInjector(s, simrand.New(7))
	}
	c := appserver.NewCaller(inj, simrand.New(8))
	w.EnableResilience(c)
	return c
}

// TestFailedOpsDemotedAndRetagged drives BBops through a database partition
// and checks that operations whose remote calls exhausted their retries are
// demoted from the business count and re-tagged "<tag>.fail".
func TestFailedOpsDemotedAndRetagged(t *testing.T) {
	w, _ := build(t, 10)
	c := resilient(t, w, &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Partition, At: 5_000_000, Duration: 60_000_000, Peer: netsim.PeerDatabase},
	}})
	src := w.Source(0)
	now := uint64(0)
	var failTagged, failBusiness int
	for i := 0; i < 800; i++ {
		op := src.NextOp(0, now)
		if strings.HasSuffix(op.Tag, ".fail") {
			failTagged++
			if op.Business {
				failBusiness++
			}
		}
		now += 150_000
	}
	if w.FailedOps == 0 {
		t.Fatal("a 60M-cycle partition produced no failed operations")
	}
	if failTagged != int(w.FailedOps) {
		t.Fatalf("%d .fail-tagged ops vs FailedOps=%d", failTagged, w.FailedOps)
	}
	if failBusiness != 0 {
		t.Fatalf("%d failed ops still counted as business", failBusiness)
	}
	if c.Stats.Timeouts == 0 || c.Stats.Retries == 0 {
		t.Fatalf("partition produced no timeouts/retries: %+v", c.Stats)
	}
}

// TestBreakerAndSheddingUnderSustainedFault checks the protective layers
// engage during a long outage: the breaker opens (rejecting calls without
// touching the network) and admission control starts shedding requests at
// the door, recorded as cheap non-business "shed" ops.
func TestBreakerAndSheddingUnderSustainedFault(t *testing.T) {
	w, _ := build(t, 10)
	c := resilient(t, w, &fault.Schedule{Events: []fault.Event{
		{Kind: fault.NodeCrash, At: 1_000_000, Duration: 200_000_000, Peer: netsim.PeerDatabase},
	}})
	src := w.Source(0)
	now := uint64(0)
	for i := 0; i < 1200; i++ {
		op := src.NextOp(0, now)
		if op.Tag == "shed" && op.Business {
			t.Fatal("shed op counted as business")
		}
		now += 150_000
	}
	if bs := c.BreakerStats(); bs.Opens == 0 || bs.Rejects == 0 {
		t.Fatalf("breaker never engaged during a 200M-cycle crash: %+v", bs)
	}
	if w.ShedOps == 0 {
		t.Fatal("admission control never shed during sustained failure")
	}
	if w.BBops["shed"] != w.ShedOps {
		t.Fatalf("shed accounting mismatch: BBops=%d ShedOps=%d", w.BBops["shed"], w.ShedOps)
	}
	// Recovery: after the window the breaker's half-open probe must let
	// traffic through again.
	if c.Stats.Successes == 0 {
		t.Fatal("no call ever succeeded (before or after the crash window)")
	}
}

// TestFaultedWorkloadDeterministic checks the same seed and schedule
// reproduce an identical faulted run: same tags, same counters.
func TestFaultedWorkloadDeterministic(t *testing.T) {
	run := func() ([]string, uint64, uint64, appserver.CallStats) {
		w, _ := build(t, 10)
		c := resilient(t, w, &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Partition, At: 3_000_000, Duration: 30_000_000, Peer: netsim.PeerDatabase},
			{Kind: fault.NodeCrash, At: 50_000_000, Duration: 20_000_000, Peer: netsim.PeerSupplier},
		}})
		src := w.Source(0)
		var tags []string
		now := uint64(0)
		for i := 0; i < 600; i++ {
			tags = append(tags, src.NextOp(0, now).Tag)
			now += 150_000
		}
		return tags, w.FailedOps, w.ShedOps, c.Stats
	}
	aTags, aFail, aShed, aStats := run()
	bTags, bFail, bShed, bStats := run()
	if aFail != bFail || aShed != bShed || aStats != bStats {
		t.Fatalf("faulted run not deterministic: %d/%d/%+v vs %d/%d/%+v",
			aFail, aShed, aStats, bFail, bShed, bStats)
	}
	for i := range aTags {
		if aTags[i] != bTags[i] {
			t.Fatalf("op streams diverge at %d: %s vs %s", i, aTags[i], bTags[i])
		}
	}
}

// TestResilienceWithoutFaultsIsQuiet checks an armed caller with no
// schedule neither fails nor sheds anything: every call succeeds on the
// first attempt.
func TestResilienceWithoutFaultsIsQuiet(t *testing.T) {
	w, _ := build(t, 10)
	c := resilient(t, w, nil)
	src := w.Source(0)
	for i := 0; i < 400; i++ {
		op := src.NextOp(0, uint64(i)*150_000)
		if !op.Business {
			t.Fatalf("non-business op %q without any faults", op.Tag)
		}
	}
	if w.FailedOps != 0 || w.ShedOps != 0 {
		t.Fatalf("quiet run failed %d / shed %d ops", w.FailedOps, w.ShedOps)
	}
	if c.Stats.Retries != 0 || c.Stats.Timeouts != 0 || c.Stats.FastFails != 0 {
		t.Fatalf("quiet run recorded fault activity: %+v", c.Stats)
	}
	if c.Stats.Successes != c.Stats.Calls {
		t.Fatalf("not every call succeeded: %+v", c.Stats)
	}
}

// TestFailedOpsRecordThinkDelays checks the failure path's cost is visible
// in the trace: a failed op carries Think items (timeout + backoff) that the
// playback engine will charge as real simulated latency.
func TestFailedOpsRecordThinkDelays(t *testing.T) {
	w, _ := build(t, 10)
	resilient(t, w, &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Partition, At: 1_000_000, Duration: 80_000_000, Peer: netsim.PeerDatabase},
	}})
	src := w.Source(0)
	now := uint64(0)
	for i := 0; i < 600; i++ {
		op := src.NextOp(0, now)
		if strings.HasSuffix(op.Tag, ".fail") {
			var think uint64
			for _, it := range op.Items {
				if it.Kind == trace.KindThink {
					think += uint64(it.N)
				}
			}
			if think < fault.TimeoutCycles {
				t.Fatalf("failed op records only %d think cycles (< one timeout %d)",
					think, fault.TimeoutCycles)
			}
			return
		}
		now += 150_000
	}
	t.Fatal("no failed op observed in 600 BBops under an 80M-cycle partition")
}
