package cluster

import (
	"bytes"
	"testing"

	"repro/internal/arrival"
	"repro/internal/fault"
	"repro/internal/obs/reqtrace"
	"repro/internal/simrand"
)

// inFlight returns requests admitted but not yet resolved.
func (s *OpenSim) inFlight() uint64 {
	return s.Stats.Offered - s.Stats.Shed - s.Stats.Completed - s.Stats.Failed
}

// openRun builds and runs a topology, returning the sim.
func openRun(t *testing.T, cfg OpenConfig, seed, horizon uint64, inj *fault.Injector, coll *reqtrace.Collector) *OpenSim {
	t.Helper()
	s, err := NewOpen(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(inj)
	s.SetCollector(coll)
	s.Run(horizon)
	return s
}

// withRate returns cfg offered at mult times its analytic capacity.
func withRate(cfg OpenConfig, mult float64) OpenConfig {
	cfg.Arrival.Rate = mult * cfg.Capacity()
	return cfg
}

func TestParseLBPolicyRoundTrip(t *testing.T) {
	for _, p := range []LBPolicy{RoundRobin, LeastInFlight} {
		got, err := ParseLBPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseLBPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"random", "weighted"} {
		if _, err := ParseLBPolicy(bad); err == nil {
			t.Fatalf("unknown policy %q accepted", bad)
		}
	}
}

func TestOpenConfigValidate(t *testing.T) {
	if err := DefaultOpenConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultOpenConfig()
	bad.Nodes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero nodes validated")
	}
	bad = DefaultOpenConfig()
	bad.Mix = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty mix validated")
	}
	bad = DefaultOpenConfig()
	bad.ClosedClients = 5
	if err := bad.Validate(); err == nil {
		t.Error("closed mode without think time validated")
	}
}

func TestOpenCapacityIsSane(t *testing.T) {
	cfg := DefaultOpenConfig()
	cap := cfg.Capacity()
	if cap <= 0 {
		t.Fatalf("capacity %g", cap)
	}
	// Doubling the app tier must raise capacity while it is the bottleneck.
	big := cfg
	big.Nodes *= 2
	if big.Capacity() <= cap {
		t.Errorf("capacity did not grow with nodes: %g -> %g", cap, big.Capacity())
	}
}

// TestOpenDeterminism: same seed, byte-identical latency report and equal
// stats; different seed diverges.
func TestOpenDeterminism(t *testing.T) {
	const horizon = 100_000_000
	cfg := withRate(DefaultOpenConfig(), 0.8)
	run := func(seed uint64) (OpenStats, []byte) {
		coll := reqtrace.NewCollector(reqtrace.Options{})
		s := openRun(t, cfg, seed, horizon, nil, coll)
		return s.Stats, coll.ReportJSON()
	}
	st1, rep1 := run(42)
	st2, rep2 := run(42)
	if st1 != st2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", st1, st2)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("same seed, different latency report bytes")
	}
	st3, _ := run(43)
	if st1 == st3 {
		t.Fatal("different seeds produced identical stats")
	}
}

// TestOpenPassivity: attaching the collector must not change the engine's
// results (the observability contract).
func TestOpenPassivity(t *testing.T) {
	const horizon = 100_000_000
	cfg := withRate(DefaultOpenConfig(), 1.5)
	bare := openRun(t, cfg, 7, horizon, nil, nil)
	observed := openRun(t, cfg, 7, horizon, nil, reqtrace.NewCollector(reqtrace.Options{}))
	if bare.Stats != observed.Stats {
		t.Fatalf("collector perturbed the run:\n%+v\n%+v", bare.Stats, observed.Stats)
	}
	if bare.now != observed.now {
		t.Fatalf("collector perturbed the clock: %d vs %d", bare.now, observed.now)
	}
}

// TestOpenConservation: at every tick and at the end,
// Offered == Shed + Completed + Failed + InFlight, and the drain leaves
// nothing in flight. Runs under a fault schedule to cover the drop paths.
func TestOpenConservation(t *testing.T) {
	const horizon = 200_000_000
	cfg := withRate(DefaultOpenConfig(), 2)
	sched := fault.Demo(20_000_000, 120_000_000)
	// Re-aim the demo's events at this topology's peers.
	for i := range sched.Events {
		if sched.Events[i].Peer != 0 {
			sched.Events[i].Peer = ShardPeer(0)
		}
	}
	checks := 0
	s, err := NewOpen(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(fault.NewInjector(sched, simrand.New(99)))
	s.SetTick(func(at uint64, sim *OpenSim) {
		checks++
		st := sim.Stats
		if st.Offered != st.Shed+st.Completed+st.Failed+sim.inFlight() {
			t.Fatalf("conservation broken at %d: %+v inflight=%d", at, st, sim.inFlight())
		}
	})
	s.Run(horizon)
	if checks < 100 {
		t.Fatalf("only %d tick checks ran", checks)
	}
	if s.inFlight() != 0 {
		t.Fatalf("drain left %d requests in flight: %+v", s.inFlight(), s.Stats)
	}
	if s.Stats.Offered == 0 || s.Stats.Completed == 0 {
		t.Fatalf("degenerate run: %+v", s.Stats)
	}
}

// TestOpenLowLoadHealthy: far below capacity nothing is shed, nothing is
// late, and goodput equals offered.
func TestOpenLowLoadHealthy(t *testing.T) {
	const horizon = 200_000_000
	cfg := withRate(DefaultOpenConfig(), 0.3)
	s := openRun(t, cfg, 3, horizon, nil, nil)
	st := s.Stats
	if st.Offered < 100 {
		t.Fatalf("too few requests to judge: %+v", st)
	}
	if st.Shed != 0 {
		t.Errorf("shed %d requests at 0.3x load", st.Shed)
	}
	if st.Failed != 0 {
		t.Errorf("failed %d requests at 0.3x load", st.Failed)
	}
	if st.Late > st.Completed/100 {
		t.Errorf("late %d of %d at 0.3x load", st.Late, st.Completed)
	}
}

// TestOpenOverloadControlsPreventCollapse is the headline acceptance: over
// a sweep of offered load, goodput with controls on stays within 10% of
// its peak even at 3x — no congestion collapse — while the naive baseline
// collapses at 3x (its completions are almost all past the client's
// deadline).
func TestOpenOverloadControlsPreventCollapse(t *testing.T) {
	const horizon = 250_000_000 // 1 simulated second of arrivals
	base := DefaultOpenConfig()

	mults := []float64{0.5, 1, 3}
	good := make([]float64, len(mults))
	peak := 0.0
	for i, m := range mults {
		s := openRun(t, withRate(base, m), 21, horizon, nil, nil)
		good[i] = float64(s.Stats.Good()) / horizon
		if good[i] > peak {
			peak = good[i]
		}
		if s.Stats.Late > s.Stats.Completed/20 {
			t.Errorf("controls on at %.1fx: %d of %d completions late",
				m, s.Stats.Late, s.Stats.Completed)
		}
	}
	at3x := good[len(good)-1]

	off := withRate(base, 3)
	off.Controls = false
	sOff := openRun(t, off, 21, horizon, nil, nil)
	goodOff := float64(sOff.Stats.Good()) / horizon

	t.Logf("controls-on goodput %.3g / %.3g / %.3g (peak %.3g); controls-off at 3x: %.3g",
		good[0], good[1], good[2], peak, goodOff)
	if at3x < 0.9*peak {
		t.Errorf("congestion collapse with controls on: goodput %.3g at 3x vs peak %.3g", at3x, peak)
	}
	if goodOff > 0.5*at3x {
		t.Errorf("controls off did not collapse: %.3g vs %.3g with controls", goodOff, at3x)
	}
	if sOff.Stats.Late < sOff.Stats.Completed/2 {
		t.Errorf("naive baseline: expected most completions late, got %d of %d",
			sOff.Stats.Late, sOff.Stats.Completed)
	}
}

// TestOpenLBPoliciesSpreadLoad: least-in-flight balances admissions about
// evenly; round-robin, with no node down, admits to each node in turn.
func TestOpenLBPoliciesSpreadLoad(t *testing.T) {
	const horizon = 100_000_000
	cfg := withRate(DefaultOpenConfig(), 0.8)
	cfg.LB = LeastInFlight
	s := openRun(t, cfg, 5, horizon, nil, nil)
	snap := s.Snapshot(s.now)
	var min, max uint64 = ^uint64(0), 0
	for _, n := range snap.Nodes {
		if n.Admitted < min {
			min = n.Admitted
		}
		if n.Admitted > max {
			max = n.Admitted
		}
	}
	if min == 0 || float64(max) > 1.3*float64(min) {
		t.Errorf("least-in-flight imbalance: min %d max %d", min, max)
	}

	rr := withRate(DefaultOpenConfig(), 0.3)
	rr.LB = RoundRobin
	srr := openRun(t, rr, 5, horizon, nil, nil)
	rs := srr.Snapshot(srr.now)
	for _, n := range rs.Nodes[1:] {
		if n.Admitted != rs.Nodes[0].Admitted && n.Admitted+1 != rs.Nodes[0].Admitted {
			t.Errorf("round-robin lb uneven: %d vs %d admissions",
				rs.Nodes[0].Admitted, n.Admitted)
		}
	}
}

// TestOpenNodeCrashRoutesAround: with one node crashed mid-run, the
// balancer routes around it and the run stays healthy at moderate load.
func TestOpenNodeCrashRoutesAround(t *testing.T) {
	const horizon = 200_000_000
	cfg := withRate(DefaultOpenConfig(), 0.5)
	sched := &fault.Schedule{Events: []fault.Event{{
		Kind: fault.NodeCrash, At: 50_000_000, Duration: 50_000_000, Peer: NodePeer(0),
	}}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	s := openRun(t, cfg, 9, horizon, fault.NewInjector(sched, nil), nil)
	st := s.Stats
	if st.ShedByCause[shedNoNode] != 0 {
		t.Errorf("requests saw no healthy node despite 3 survivors: %d", st.ShedByCause[shedNoNode])
	}
	if float64(st.Good()) < 0.9*float64(st.Offered) {
		t.Errorf("crash at 0.5x load hurt goodput too much: %d good of %d offered", st.Good(), st.Offered)
	}
}

// TestOpenShardCrashBreakerAndRetries: a crashed shard trips breakers and
// denies retries through the budget rather than amplifying.
func TestOpenShardCrashBreakerAndRetries(t *testing.T) {
	const horizon = 200_000_000
	cfg := withRate(DefaultOpenConfig(), 0.8)
	sched := &fault.Schedule{Events: []fault.Event{{
		Kind: fault.NodeCrash, At: 40_000_000, Duration: 100_000_000, Peer: ShardPeer(0),
	}}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	s := openRun(t, cfg, 13, horizon, fault.NewInjector(sched, nil), nil)
	st := s.Stats
	if st.FastFails == 0 {
		t.Error("no fast-fails despite a crashed shard")
	}
	if st.BreakerHits == 0 {
		t.Error("breakers never opened against a shard down for 100M cycles")
	}
	if st.Failed == 0 {
		t.Error("no failed requests despite half the keyspace being down")
	}
	// The surviving shard's keyspace keeps completing.
	if st.Completed == 0 || st.Completed < st.Failed {
		t.Errorf("survivable crash killed everything: %+v", st)
	}
}

// TestOpenShardStorm: SetFaults arms every shard under its ShardPeer id, so
// a db-lock-storm aimed at a shard stretches that shard's service and fails
// requests at the default load, while one aimed only at a node leaves every
// shard's service alone.
func TestOpenShardStorm(t *testing.T) {
	const at, mag = 20_000_000, 30
	storm := func(peer uint8) *fault.Injector {
		sched := &fault.Schedule{Events: []fault.Event{{
			Kind: fault.DBLockStorm, At: at, Duration: 40_000_000, Magnitude: mag, Peer: peer,
		}}}
		if err := sched.Validate(); err != nil {
			t.Fatal(err)
		}
		return fault.NewInjector(sched, nil)
	}
	cfg := DefaultOpenConfig()
	for _, tc := range []struct {
		peer    uint8
		stormed int
	}{{ShardPeer(0), 0}, {NodePeer(0), -1}} {
		s, err := NewOpen(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.SetFaults(storm(tc.peer))
		// A twin without faults draws the same jittered service.
		calm, err := NewOpen(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		for k, sh := range s.shards {
			_, _, want := calm.shards[k].Respond(at+1, 0, 0)
			if k == tc.stormed {
				want = uint64(float64(want) * mag)
			}
			if _, _, got := sh.Respond(at+1, 0, 0); got != want {
				t.Errorf("storm on peer %d: shard %d service %d, want %d", tc.peer, k, got, want)
			}
		}
	}

	const horizon = 100_000_000
	calm := openRun(t, DefaultOpenConfig(), 1, horizon, nil, nil)
	hit := openRun(t, DefaultOpenConfig(), 1, horizon, storm(ShardPeer(0)), nil)
	if hit.Stats.Failed <= calm.Stats.Failed {
		t.Errorf("a x%d storm on shard 0 failed %d requests, no more than the %d without it", mag, hit.Stats.Failed, calm.Stats.Failed)
	}
}

// TestOpenClosedLoopMode: the closed-loop population self-throttles — no
// shedding, goodput equals offered, and the run drains clean.
func TestOpenClosedLoopMode(t *testing.T) {
	const horizon = 200_000_000
	cfg := DefaultOpenConfig()
	cfg.ClosedClients = 16
	cfg.ThinkCycles = 4_000_000
	s := openRun(t, cfg, 19, horizon, nil, nil)
	st := s.Stats
	if st.Offered < 100 {
		t.Fatalf("closed loop barely ran: %+v", st)
	}
	if st.Shed != 0 || st.Failed != 0 {
		t.Errorf("healthy closed loop shed/failed requests: %+v", st)
	}
	if s.inFlight() != 0 {
		t.Errorf("closed loop left %d in flight", s.inFlight())
	}
}

// TestOpenClosedEquivalenceAtLowLoad is the low-utilization equivalence
// check: at matched throughput far below capacity, open-arrival and
// closed-loop runs must report the same per-request phase decomposition
// (within tolerance) — the queueing discipline only matters under load.
func TestOpenClosedEquivalenceAtLowLoad(t *testing.T) {
	const horizon = 400_000_000
	closed := DefaultOpenConfig()
	closed.ClosedClients = 8
	closed.ThinkCycles = 8_000_000
	collC := reqtrace.NewCollector(reqtrace.Options{})
	sc := openRun(t, closed, 23, horizon, nil, collC)

	// Match the open arrival rate to the closed loop's realized throughput.
	rate := float64(sc.Stats.Offered) / float64(sc.now)
	open := DefaultOpenConfig()
	open.Arrival = arrival.Config{Pattern: arrival.Poisson, Rate: rate}
	collO := reqtrace.NewCollector(reqtrace.Options{})
	so := openRun(t, open, 29, horizon, nil, collO)

	if so.Stats.Shed != 0 || sc.Stats.Shed != 0 {
		t.Fatalf("low-load runs shed work: open %+v closed %+v", so.Stats, sc.Stats)
	}
	repO, repC := collO.BuildReport(), collC.BuildReport()
	perReq := func(r *reqtrace.Report) map[string][3]float64 {
		out := make(map[string][3]float64)
		for _, c := range r.Classes {
			n := float64(c.Latency.Count)
			if n == 0 || c.Error {
				continue
			}
			out[c.Class] = [3]float64{
				float64(c.Phases.CPU) / n,
				float64(c.Phases.Net) / n,
				float64(c.Phases.DBService) / n,
			}
		}
		return out
	}
	po, pc := perReq(repO), perReq(repC)
	names := [3]string{"cpu", "net", "db_service"}
	for class, o := range po {
		c, ok := pc[class]
		if !ok {
			t.Errorf("class %q missing from closed-loop run", class)
			continue
		}
		for i := range o {
			lo, hi := o[i], c[i]
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == 0 || hi/lo > 1.15 {
				t.Errorf("class %q phase %s diverges: open %.0f vs closed %.0f cycles/req",
					class, names[i], o[i], c[i])
			}
		}
	}
}

// TestOpenSnapshotShape: snapshots expose every node and shard with
// coherent limiter state.
func TestOpenSnapshotShape(t *testing.T) {
	const horizon = 50_000_000
	cfg := withRate(DefaultOpenConfig(), 1)
	s := openRun(t, cfg, 31, horizon, nil, nil)
	snap := s.Snapshot(s.now)
	if len(snap.Nodes) != cfg.Nodes || len(snap.Shards) != cfg.Shards {
		t.Fatalf("snapshot shape: %d nodes, %d shards", len(snap.Nodes), len(snap.Shards))
	}
	for _, sh := range snap.Shards {
		if sh.Limit <= 0 {
			t.Errorf("shard %d reports limit %.1f with controls on", sh.ID, sh.Limit)
		}
		if sh.Served == 0 {
			t.Errorf("shard %d served nothing", sh.ID)
		}
	}
}
