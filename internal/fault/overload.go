package fault

// This file holds the adaptive overload-control laws the open-system
// cluster uses to survive offered load beyond capacity. Like the Breaker
// and Shedder, each controller is a small deterministic state machine on
// the simulated clock, driven entirely by its caller — no goroutines, no
// wall time — so overloaded runs replay bit-identically from their seed.
//
// Four mechanisms, four failure modes they kill:
//
//   - CoDel (queue-delay admission): unbounded queueing delay. The
//     controller watches how long requests *waited* rather than how many
//     are queued, and starts dropping at the head — at an escalating
//     rate — when the standing delay exceeds the target for a full
//     interval. Head drops propagate the congestion signal to the newest
//     requests' clients, which still have time to care.
//   - AIMD concurrency limit: backend collapse. The per-backend limit
//     grows additively while the backend is fast and halves (bounded
//     below) when it is slow, converging on the highest concurrency the
//     backend sustains — TCP congestion control applied to RPC.
//   - Retry budget: retry storms. Retries spend from a token bucket that
//     refills as a fraction of primary traffic; when failures dominate,
//     the bucket drains and retries stop amplifying the overload.
//   - Brownout: wasted optional work. A stepped degradation level driven
//     by queue delay; each level sheds one more optional work class, so
//     the revenue-critical class keeps its latency long after the
//     decorative ones are gone.

// The queue-delay admission controller's target and interval: the classic
// 5 ms / 100 ms, scaled to the 250 MHz simulated clock.
const (
	// codelTargetCycles is the acceptable standing queue delay (CoDel's
	// "target", 5 ms in the paper).
	codelTargetCycles = 1_250_000
	// codelIntervalCycles is how long the delay must stay above target
	// before dropping starts (CoDel's "interval", 100 ms in the paper).
	codelIntervalCycles = 25_000_000
)

// CoDelStats counts controller decisions.
type CoDelStats struct {
	Drops uint64 // head drops
}

// CoDel is the controlled-delay admission controller, consulted at every
// dequeue with the dequeued request's queue delay. The control law follows
// Nichols & Jacobson: sojourn above target for one full interval enters the
// dropping state; successive drops accelerate as interval/sqrt(n); a
// sojourn below target exits immediately.
type CoDel struct {
	firstAbove uint64 // cycle the delay first exceeded target (0 = below)
	dropping   bool
	dropNext   uint64 // next scheduled drop while in dropping state
	dropCount  int

	Stats CoDelStats
}

// NewCoDel returns an idle controller.
func NewCoDel() *CoDel { return &CoDel{} }

// controlLaw returns the time of drop n after t.
func (c *CoDel) controlLaw(t uint64, n int) uint64 {
	return t + uint64(float64(codelIntervalCycles)/sqrtf(n))
}

// OnDequeue decides the fate of a request dequeued at cycle now after
// waiting qdelay cycles: false admits it, true drops it. Callers drop the
// request and immediately try the next one.
func (c *CoDel) OnDequeue(now, qdelay uint64) (drop bool) {
	if qdelay < codelTargetCycles {
		// Standing delay resolved: leave dropping state, reset tracking.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + codelIntervalCycles
	}
	if c.dropping {
		if now >= c.dropNext {
			c.dropCount++
			c.dropNext = c.controlLaw(c.dropNext, c.dropCount)
			c.Stats.Drops++
			return true
		}
		return false
	}
	if now >= c.firstAbove {
		// Delay stood above target for a full interval: start dropping.
		c.dropping = true
		c.dropCount = 1
		c.dropNext = c.controlLaw(now, c.dropCount)
		c.Stats.Drops++
		return true
	}
	return false
}

// Dropping reports whether the controller is in its dropping state.
func (c *CoDel) Dropping() bool { return c.dropping }

// sqrtf is an integer-friendly Newton sqrt for the control law (avoids
// importing math for one call; exact enough for drop pacing).
func sqrtf(n int) float64 {
	x := float64(n)
	if x <= 0 {
		return 1
	}
	g := x
	for i := 0; i < 20; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// The adaptive concurrency limiter's tuning suits a backend with ~0.5 ms
// fast-path responses: the congestion threshold is 1.2 ms — comfortably
// above a healthy round trip but below the 1.6 ms call timeout, so the
// limiter reacts to slowness before callers start abandoning — decreases
// halve, and at most one decrease fires per 10 ms.
const (
	// aimdMinLimit/aimdMaxLimit bound the concurrency limit.
	aimdMinLimit = 2.0
	aimdMaxLimit = 256.0
	// aimdIncrease is the additive limit growth per fast completion.
	aimdIncrease = 0.05
	// aimdDecreaseFactor multiplies the limit on a congestion signal.
	aimdDecreaseFactor = 0.5
	// aimdLatencyThresholdCycles is the round-trip time above which a
	// completion counts as a congestion signal, as do failures.
	aimdLatencyThresholdCycles = 300_000
	// aimdCooldownCycles rate-limits multiplicative decreases so one slow
	// burst does not collapse the limit to the floor.
	aimdCooldownCycles = 2_500_000
)

// AIMD is the adaptive concurrency control law. It owns only the limit;
// the caller tracks its own in-flight population against Limit() (in a
// discrete-event simulation, in-flight bookkeeping needs the caller's event
// clock) and reports completions through Outcome.
type AIMD struct {
	limit        float64
	lastDecrease uint64
}

// NewAIMD starts the limiter at the midpoint of its range.
func NewAIMD() *AIMD {
	return &AIMD{limit: (aimdMinLimit + aimdMaxLimit) / 2}
}

// Limit returns the current concurrency limit (floor it for admission).
func (l *AIMD) Limit() float64 { return l.limit }

// Outcome feeds one completed call: ok is the logical result, rtt its
// round-trip cycles, now the completion cycle. Slow or failed calls cut the
// limit (at most once per cooldown); fast successes grow it.
func (l *AIMD) Outcome(now, rtt uint64, ok bool) {
	if !ok || rtt > aimdLatencyThresholdCycles {
		if now >= l.lastDecrease+aimdCooldownCycles {
			l.limit *= aimdDecreaseFactor
			if l.limit < aimdMinLimit {
				l.limit = aimdMinLimit
			}
			l.lastDecrease = now
		}
		return
	}
	l.limit += aimdIncrease
	if l.limit > aimdMaxLimit {
		l.limit = aimdMaxLimit
	}
}

// The retry budget allows 10% steady-state retries with a burst of 20 —
// enough to ride out a blip, nothing like a storm.
const (
	// retryRatio is the tokens earned per primary request — the
	// steady-state retry fraction the budget permits (0.1 = 10% retry
	// amplification).
	retryRatio = 0.1
	// retryBurst is the bucket capacity in tokens.
	retryBurst = 20.0
)

// RetryBudget is the token bucket that bounds retry amplification. Earn is
// called once per primary (first-attempt) request; Allow gates each retry.
type RetryBudget struct {
	tokens float64
}

// NewRetryBudget returns a full bucket.
func NewRetryBudget() *RetryBudget { return &RetryBudget{tokens: retryBurst} }

// Earn credits the budget for one primary request.
func (b *RetryBudget) Earn() {
	b.tokens += retryRatio
	if b.tokens > retryBurst {
		b.tokens = retryBurst
	}
}

// Allow spends one token for a retry, reporting whether one was available.
func (b *RetryBudget) Allow() bool {
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Stepped degradation engages at 18 ms of queue delay, disengages below
// 4 ms, and moves at most once per 25 ms. The engage threshold sits above
// the worst delay a default bounded queue can hold under any admitted mix,
// so steady overload (which the queue cap and CoDel absorb by shedding
// uniformly) does not brown the service — only genuine capacity loss (a
// crashed node draining with cold caches, a seized shard) pushes delay
// high enough to start shedding optional work. Setting the threshold
// below the cap's worst all-critical-mix delay instead causes lock-in:
// degradation shifts the queue toward expensive critical requests, whose
// own standing delay then holds the controller engaged forever.
const (
	// brownMaxLevel is the deepest degradation level (work classes carry a
	// Priority; level L sheds every class with 0 < Priority <= L).
	brownMaxLevel = 2
	// brownEngageDelayCycles is the queue delay that steps the level up;
	// brownDisengageDelayCycles (< engage) steps it down.
	brownEngageDelayCycles    = 4_500_000
	brownDisengageDelayCycles = 1_000_000
	// brownHoldCycles is the minimum dwell between level changes, damping
	// oscillation.
	brownHoldCycles = 6_250_000
)

// Brownout is the stepped degradation controller. Observe feeds it queue
// delays (typically at every dequeue); DropClass answers admission-time
// questions about optional work.
type Brownout struct {
	level      int
	lastChange uint64
}

// NewBrownout returns an un-degraded controller.
func NewBrownout() *Brownout { return &Brownout{} }

// Level returns the current degradation level (0 = full service).
func (b *Brownout) Level() int { return b.level }

// Observe feeds one queue-delay measurement at cycle now and moves the
// level at most one step, respecting the hold time.
func (b *Brownout) Observe(now, qdelay uint64) {
	if now < b.lastChange+brownHoldCycles {
		return
	}
	switch {
	case qdelay >= brownEngageDelayCycles && b.level < brownMaxLevel:
		b.level++
		b.lastChange = now
	case qdelay <= brownDisengageDelayCycles && b.level > 0:
		b.level--
		b.lastChange = now
	}
}

// DropClass reports whether a request of the given priority should be shed
// at the current level. Priority 0 is never shed.
func (b *Brownout) DropClass(priority int) bool {
	return priority > 0 && priority <= b.level
}
