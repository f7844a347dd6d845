package fault

import "testing"

// TestOverloadConfigValidation: the controllers' constants satisfy the
// relations their control laws rely on to converge and not wedge.
func TestOverloadConfigValidation(t *testing.T) {
	if codelTargetCycles == 0 || codelIntervalCycles == 0 {
		t.Error("codel target and interval must be positive")
	}
	if aimdMinLimit < 1 || aimdMaxLimit < aimdMinLimit {
		t.Error("aimd limits must satisfy 1 <= min <= max")
	}
	if aimdIncrease <= 0 || aimdDecreaseFactor <= 0 || aimdDecreaseFactor >= 1 || aimdLatencyThresholdCycles == 0 {
		t.Error("aimd needs a positive increase, a decrease factor in (0, 1) and a positive threshold")
	}
	if aimdLatencyThresholdCycles >= TimeoutCycles {
		t.Error("aimd must see slowness before callers time out")
	}
	if retryRatio <= 0 || retryRatio > 1 || retryBurst < 1 {
		t.Error("retry budget needs a ratio in (0, 1] and a burst of at least 1")
	}
	if brownMaxLevel < 1 || brownDisengageDelayCycles >= brownEngageDelayCycles {
		t.Error("brownout needs a level and a disengage threshold below its engage threshold")
	}
}

// TestCoDelBelowTargetNeverDrops: short queue delays pass untouched.
func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	c := NewCoDel()
	for now := uint64(0); now < 100*codelIntervalCycles; now += codelIntervalCycles / 10 {
		if c.OnDequeue(now, codelTargetCycles/2) {
			t.Fatalf("dropped at %d with delay below target", now)
		}
	}
	if c.Stats.Drops != 0 {
		t.Errorf("drops = %d, want 0", c.Stats.Drops)
	}
}

// TestCoDelStandingDelayDrops: a standing delay above target for a full
// interval enters the dropping state, and drops accelerate; recovery (a
// sojourn below target) exits immediately.
func TestCoDelStandingDelayDrops(t *testing.T) {
	c := NewCoDel()
	step := uint64(codelIntervalCycles / 50)
	now := uint64(0)
	// Phase 1: delay persistently 4x target.
	var firstDrop uint64
	for i := 0; i < 1000; i++ {
		now += step
		if c.OnDequeue(now, 4*codelTargetCycles) && firstDrop == 0 {
			firstDrop = now
		}
	}
	if firstDrop == 0 {
		t.Fatal("standing delay never triggered a drop")
	}
	if firstDrop < codelIntervalCycles {
		t.Errorf("first drop at %d, before a full interval %d elapsed", firstDrop, codelIntervalCycles)
	}
	if !c.Dropping() {
		t.Error("controller not in dropping state under standing delay")
	}
	earlyDrops := c.Stats.Drops
	// Drops accelerate: the second half of an equally long overload window
	// must shed at least as many as the first.
	for i := 0; i < 1000; i++ {
		now += step
		c.OnDequeue(now, 4*codelTargetCycles)
	}
	lateDrops := c.Stats.Drops - earlyDrops
	if lateDrops < earlyDrops {
		t.Errorf("drops decelerated: %d then %d", earlyDrops, lateDrops)
	}
	// Phase 2: one below-target sojourn resets everything.
	if c.OnDequeue(now+step, codelTargetCycles/4) {
		t.Error("dropped a below-target request")
	}
	if c.Dropping() {
		t.Error("controller still dropping after delay recovered")
	}
}

// TestAIMDConverges: fast successes grow the limit to the cap; slow
// responses collapse it multiplicatively but never below the floor, and the
// cooldown bounds the collapse rate.
func TestAIMDConverges(t *testing.T) {
	l := NewAIMD()
	start := l.Limit()
	now := uint64(0)
	for i := 0; i < 100000; i++ {
		now += 1000
		l.Outcome(now, aimdLatencyThresholdCycles/2, true)
	}
	if l.Limit() != aimdMaxLimit {
		t.Errorf("limit %.1f after sustained fast traffic, want cap %.1f", l.Limit(), aimdMaxLimit)
	}
	if l.Limit() <= start {
		t.Errorf("limit never grew from %.1f", start)
	}
	// One slow burst inside a single cooldown window: exactly one decrease.
	before := l.Limit()
	for i := 0; i < 10; i++ {
		l.Outcome(now+uint64(i), 10*aimdLatencyThresholdCycles, true)
	}
	if got, want := l.Limit(), before*aimdDecreaseFactor; got != want {
		t.Errorf("limit %.2f after one congested burst, want single cut to %.2f", got, want)
	}
	// Sustained congestion across cooldowns: floor holds.
	for i := 0; i < 100; i++ {
		now += aimdCooldownCycles + 1
		l.Outcome(now, 10*aimdLatencyThresholdCycles, false)
	}
	if l.Limit() != aimdMinLimit {
		t.Errorf("limit %.2f under sustained congestion, want floor %.2f", l.Limit(), aimdMinLimit)
	}
}

// TestRetryBudgetStopsStorms: with no primary traffic earning tokens, only
// the initial burst of retries is admitted; steady primary traffic sustains
// the configured retry ratio.
func TestRetryBudgetStopsStorms(t *testing.T) {
	b := NewRetryBudget()
	admitted := 0
	for i := 0; i < 1000; i++ {
		if b.Allow() {
			admitted++
		}
	}
	if admitted != int(retryBurst) {
		t.Errorf("storm admitted %d retries, want exactly the burst %d", admitted, int(retryBurst))
	}
	// Steady state: 10 primaries earn one retry.
	b2 := NewRetryBudget()
	for i := 0; i < int(retryBurst); i++ { // drain the initial burst
		b2.Allow()
	}
	earned := 0
	for i := 0; i < 1000; i++ {
		b2.Earn()
		if b2.Allow() {
			earned++
		}
	}
	if earned < 95 || earned > 105 {
		t.Errorf("steady-state retries %d per 1000 primaries, want ~%d", earned, int(retryRatio*1000))
	}
}

// TestBrownoutSteps: queue pressure walks the level up one step per hold
// period, relief walks it back down, and priority-0 work is never shed.
func TestBrownoutSteps(t *testing.T) {
	b := NewBrownout()
	if b.DropClass(2) || b.DropClass(0) {
		t.Fatal("un-degraded controller sheds work")
	}
	now := uint64(brownHoldCycles)
	b.Observe(now, brownEngageDelayCycles)
	if b.Level() != 1 {
		t.Fatalf("level %d after first engage, want 1", b.Level())
	}
	// Within the hold period nothing moves.
	b.Observe(now+1, brownEngageDelayCycles*10)
	if b.Level() != 1 {
		t.Fatalf("level moved within hold period")
	}
	now += brownHoldCycles
	b.Observe(now, brownEngageDelayCycles)
	if b.Level() != brownMaxLevel {
		t.Fatalf("level %d, want max %d", b.Level(), brownMaxLevel)
	}
	// At max level: optional classes shed, critical class survives.
	if !b.DropClass(1) || !b.DropClass(2) {
		t.Error("optional classes not shed at max level")
	}
	if b.DropClass(0) {
		t.Error("priority-0 class shed")
	}
	// Ceiling holds.
	now += brownHoldCycles
	b.Observe(now, brownEngageDelayCycles)
	if b.Level() != brownMaxLevel {
		t.Errorf("level %d exceeded max", b.Level())
	}
	// Relief walks back down, one step per hold period.
	for want := brownMaxLevel - 1; want >= 0; want-- {
		now += brownHoldCycles
		b.Observe(now, brownDisengageDelayCycles)
		if b.Level() != want {
			t.Errorf("level %d after relief, want %d", b.Level(), want)
		}
	}
}

// TestBreakerHalfOpenProbeFailure is the regression test for the half-open
// probe-failure path: a failed probe must re-open the breaker and restart
// the FULL cooldown from the probe's completion — not resume the old one,
// and not land half-open or closed.
func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	b := NewBreaker()
	// Trip the breaker at t=0.
	for i := 0; i < breakerFailures; i++ {
		if !b.Allow(0) {
			t.Fatal("closed breaker rejected a call")
		}
		b.Record(0, false)
	}
	if b.State(0) != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", b.State(0), breakerFailures)
	}
	// Cooldown elapses; the probe is admitted at t1 and fails at t2.
	t1 := uint64(breakerCooldownCycles)
	if !b.Allow(t1) {
		t.Fatal("half-open breaker rejected the probe")
	}
	t2 := t1 + 100_000
	b.Record(t2, false)

	if got := b.State(t2); got != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	// A fresh full cooldown must run from t2: just before t2+cooldown the
	// breaker still rejects; at t2+cooldown it admits exactly one new probe.
	if b.Allow(t2 + breakerCooldownCycles - 1) {
		t.Error("breaker admitted a call before the restarted cooldown elapsed")
	}
	// In particular the OLD cooldown (from the original open at t=0) must
	// not apply: t1+cooldown has long passed, yet the breaker stays open.
	if got := b.State(t1 + breakerCooldownCycles); got != BreakerOpen {
		t.Errorf("state %v at old-cooldown expiry, want open (cooldown must restart)", got)
	}
	t3 := t2 + breakerCooldownCycles
	if !b.Allow(t3) {
		t.Fatal("breaker rejected the probe after the restarted cooldown")
	}
	// Only one probe at a time.
	if b.Allow(t3) {
		t.Error("second concurrent probe admitted in half-open state")
	}
	// This probe succeeds: breaker closes and stays closed.
	b.Record(t3+100_000, true)
	if got := b.State(t3 + 200_000); got != BreakerClosed {
		t.Errorf("state %v after successful probe, want closed", got)
	}
	if b.Stats.Opens != 2 {
		t.Errorf("opens = %d, want 2 (initial trip + failed probe)", b.Stats.Opens)
	}
}
