package fault

import (
	"fmt"

	"repro/internal/simrand"
)

// The application server's resilience behavior on calls to remote tiers,
// tuned to the simulated ECperf deployment: the timeout clears a healthy
// database round trip (~100k cycles) by a wide margin, and the breaker
// trips after roughly one worker's worth of consecutive timeouts. All times
// are simulated cycles (250 MHz clock).
const (
	// TimeoutCycles is the per-request timeout: how long a caller waits for
	// a response before declaring the attempt lost.
	TimeoutCycles = 400_000
	// FastFailCycles is the cost of a refused connection (crashed peer):
	// the kernel answers almost immediately.
	FastFailCycles = 4_000
	// MaxAttempts bounds tries per logical call (first attempt + retries).
	MaxAttempts = 3
	// backoffBaseCycles is the delay before the first retry; each further
	// retry doubles it, capped at backoffCapCycles.
	backoffBaseCycles = 50_000
	backoffCapCycles  = 800_000
	// jitterFrac spreads each backoff uniformly over ±jitterFrac of its
	// nominal value, decorrelating retry storms across workers.
	jitterFrac = 0.5

	// breakerFailures consecutive failures open the per-backend circuit
	// breaker; while open, calls fail locally without touching the network.
	// After breakerCooldownCycles the breaker goes half-open and admits one
	// probe: success closes it, failure re-opens it.
	breakerFailures       = 5
	breakerCooldownCycles = 2_000_000

	// Admission control: requests are shed at the door when the failure
	// rate observed over the previous shedWindowCycles exceeds
	// shedFailRate. The shed probability rises linearly from 0 at the
	// threshold to 1 at a 100% failure rate, so shedding is proportional
	// to overload rather than all-or-nothing.
	shedWindowCycles = 1_000_000
	shedFailRate     = 0.5
)

// Backoff returns the delay before retry number n (1 = first retry):
// capped exponential with ±jitterFrac uniform jitter drawn from rng (nil
// rng: no jitter).
func Backoff(n int, rng *simrand.Rand) uint32 {
	d := uint64(backoffBaseCycles)
	for i := 1; i < n; i++ {
		d *= 2
		if d >= backoffCapCycles {
			break
		}
	}
	if d > backoffCapCycles {
		d = backoffCapCycles
	}
	if rng != nil {
		lo := float64(d) * (1 - jitterFrac)
		span := float64(d) * 2 * jitterFrac
		d = uint64(lo + span*rng.Float64())
	}
	return uint32(d) // at most backoffCapCycles*(1+jitterFrac)
}

// BreakerState is the circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed: normal operation, calls flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are rejected locally until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe call is admitted to test the backend.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerStats counts breaker activity.
type BreakerStats struct {
	Opens   uint64 // closed/half-open -> open transitions
	Rejects uint64 // calls refused while open
	Probes  uint64 // half-open probe calls admitted
}

// Breaker is a per-backend circuit breaker on the simulated clock. It is
// driven by the caller: Allow before each attempt sequence, Record after.
type Breaker struct {
	state    BreakerState
	fails    int    // consecutive failures while closed
	openedAt uint64 // cycle the breaker last opened
	probing  bool   // a half-open probe is in flight

	Stats BreakerStats
}

// NewBreaker returns a closed breaker.
func NewBreaker() *Breaker { return &Breaker{} }

// State returns the breaker's position at cycle t (it resolves the
// open -> half-open transition lazily).
func (b *Breaker) State(t uint64) BreakerState {
	if b.state == BreakerOpen && t >= b.openedAt+breakerCooldownCycles {
		b.state = BreakerHalfOpen
		b.probing = false
	}
	return b.state
}

// Allow reports whether a call may proceed at cycle t. In half-open state
// only the first caller gets through (the probe); the rest are rejected
// until the probe's Record arrives.
func (b *Breaker) Allow(t uint64) bool {
	switch b.State(t) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			b.Stats.Rejects++
			return false
		}
		b.probing = true
		b.Stats.Probes++
		return true
	default:
		b.Stats.Rejects++
		return false
	}
}

// Record reports the outcome of an admitted call that started at cycle t.
func (b *Breaker) Record(t uint64, ok bool) {
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.fails = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = t
			b.Stats.Opens++
		}
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= breakerFailures {
			b.state = BreakerOpen
			b.openedAt = t
			b.fails = 0
			b.Stats.Opens++
		}
	}
}

// Shedder is the admission controller: it watches the failure rate of
// completed calls over fixed windows of the simulated clock and sheds
// incoming requests in proportion to how far the previous window's rate
// exceeded shedFailRate.
type Shedder struct {
	winStart uint64
	ok, fail uint64
	prevRate float64 // failure rate of the last completed window

	// Shed counts requests rejected at the door.
	Shed uint64
}

// NewShedder returns an idle admission controller.
func NewShedder() *Shedder { return &Shedder{} }

// roll advances the observation window to cover cycle t.
func (s *Shedder) roll(t uint64) {
	for t >= s.winStart+shedWindowCycles {
		if n := s.ok + s.fail; n > 0 {
			s.prevRate = float64(s.fail) / float64(n)
		} else {
			// An empty window carries the previous estimate forward at half
			// strength: overload evidence decays instead of latching.
			s.prevRate /= 2
		}
		s.ok, s.fail = 0, 0
		s.winStart += shedWindowCycles
		if s.winStart+shedWindowCycles < s.winStart {
			break // clock overflow guard
		}
	}
}

// Observe records one completed call outcome at cycle t.
func (s *Shedder) Observe(t uint64, ok bool) {
	s.roll(t)
	if ok {
		s.ok++
	} else {
		s.fail++
	}
}

// FailRate returns the failure-rate estimate governing admission at t.
func (s *Shedder) FailRate(t uint64) float64 {
	s.roll(t)
	return s.prevRate
}

// Admit decides whether to accept a request arriving at cycle t, drawing
// the shed lottery from rng when partially overloaded.
func (s *Shedder) Admit(t uint64, rng *simrand.Rand) bool {
	rate := s.FailRate(t)
	if rate <= shedFailRate {
		return true
	}
	p := (rate - shedFailRate) / (1 - shedFailRate)
	if p < 1 && !rng.Bool(p) {
		return true
	}
	s.Shed++
	return false
}
