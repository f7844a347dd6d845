package appserver

import (
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simrand"
	"repro/internal/trace"
)

// Caller is the application server's resilient remote-call path: per-request
// timeouts, capped exponential backoff with jittered retries, a per-backend
// circuit breaker, and admission-control load shedding, all tuned by the
// fault package's constants and driven by the run's fault injector.
//
// It operates at record time, like everything in the functional layer: the
// injector decides from its schedule whether a call at the current simulated
// time succeeds, times out (partition/loss), or fast-fails (crash), and the
// Caller records the consequence into the operation trace — the real network
// round trip on success, or a Think delay of the timeout/backoff on failure.
// The playback engine then charges those delays in simulated time. Breaker
// and shedder state advance on the same clock (the operation's dispatch
// time plus the delays recorded so far), keeping every decision a pure
// function of (seed, schedule), so faulted runs replay exactly.
//
// A nil *Caller is valid and transparent: calls go straight to the network
// stack and admission always succeeds.
type Caller struct {
	inj      *fault.Injector
	rng      *simrand.Rand
	breakers map[uint8]*fault.Breaker
	shed     *fault.Shedder

	// Stats counts resilience activity since construction.
	Stats CallStats
}

// CallStats are the Caller's counters, exported as fault.* metrics.
type CallStats struct {
	Calls          uint64 // logical calls requested
	Attempts       uint64 // network attempts (≥ Calls - breaker rejects)
	Retries        uint64 // attempts after the first
	Timeouts       uint64 // attempts lost to a partition or packet loss
	FastFails      uint64 // attempts refused by a crashed peer
	BreakerRejects uint64 // calls rejected locally by an open breaker
	Failures       uint64 // logical calls that exhausted every attempt
	Successes      uint64 // logical calls that completed
}

// NewCaller builds the resilient call path. inj may be nil (no injected
// faults — the resilience machinery still runs). rng must be a stream
// derived from the run seed.
func NewCaller(inj *fault.Injector, rng *simrand.Rand) *Caller {
	return &Caller{
		inj:      inj,
		rng:      rng,
		breakers: make(map[uint8]*fault.Breaker),
		shed:     fault.NewShedder(),
	}
}

func (c *Caller) breaker(peer uint8) *fault.Breaker {
	b, ok := c.breakers[peer]
	if !ok {
		b = fault.NewBreaker()
		c.breakers[peer] = b
	}
	return b
}

// BreakerStats sums breaker activity across backends.
func (c *Caller) BreakerStats() fault.BreakerStats {
	var s fault.BreakerStats
	if c == nil {
		return s
	}
	for _, b := range c.breakers {
		s.Opens += b.Stats.Opens
		s.Rejects += b.Stats.Rejects
		s.Probes += b.Stats.Probes
	}
	return s
}

// ShedCount returns how many requests admission control has shed.
func (c *Caller) ShedCount() uint64 {
	if c == nil {
		return 0
	}
	return c.shed.Shed
}

// Admit decides whether to accept a request arriving at simulated time now.
// A false return means the request should be answered with a cheap
// rejection instead of being processed.
func (c *Caller) Admit(now uint64) bool {
	if c == nil {
		return true
	}
	if c.shed.Admit(now, c.rng) {
		return true
	}
	if c.inj.Admit() {
		c.inj.Instant("resilience.shed", now)
	}
	return false
}

// Call records one resilient logical call to peer on ns: up to
// fault.MaxAttempts tries separated by jittered exponential backoff,
// guarded by the peer's circuit breaker. It returns false when the call
// failed (the operation should take its error path) and the simulated
// cycles of delay it recorded, so the workload can keep its record-time
// clock aligned.
func (c *Caller) Call(rec *trace.Recorder, ns *netsim.NetStack, peer uint8, reqBytes, respBytes uint32, now uint64) (ok bool, delay uint64) {
	if c == nil {
		ns.Call(rec, peer, reqBytes, respBytes)
		return true, 0
	}
	c.Stats.Calls++
	br := c.breaker(peer)
	t := now
	for attempt := 1; ; attempt++ {
		if !br.Allow(t) {
			// Local rejection: the breaker answers without touching the
			// network. Nearly free — one think tick models the error path.
			c.Stats.BreakerRejects++
			rec.Think(fault.FastFailCycles)
			t += fault.FastFailCycles
			c.shed.Observe(t, false)
			break
		}
		c.Stats.Attempts++
		if attempt > 1 {
			c.Stats.Retries++
		}
		opensBefore := br.Stats.Opens
		switch c.inj.CallOutcome(peer, t) {
		case fault.OK:
			ns.Call(rec, peer, reqBytes, respBytes)
			br.Record(t, true)
			c.shed.Observe(t, true)
			c.Stats.Successes++
			return true, t - now
		case fault.FastFail:
			// Connection refused by a crashed peer: fast, cheap failure.
			c.Stats.FastFails++
			rec.Think(fault.FastFailCycles)
			t += fault.FastFailCycles
			if c.inj.Admit() {
				c.inj.Instant("resilience.fastfail", t, obs.U64("peer", uint64(peer)))
			}
		case fault.Lost:
			// The request (or its reply) vanished: the caller burns the
			// full timeout discovering that.
			c.Stats.Timeouts++
			rec.Think(fault.TimeoutCycles)
			t += fault.TimeoutCycles
			if c.inj.Admit() {
				c.inj.Instant("resilience.timeout", t, obs.U64("peer", uint64(peer)))
			}
		}
		br.Record(t, false)
		c.shed.Observe(t, false)
		if br.Stats.Opens > opensBefore {
			if c.inj.Admit() {
				c.inj.Instant("resilience.breaker_open", t, obs.U64("peer", uint64(peer)))
			}
		}
		if attempt >= fault.MaxAttempts {
			break
		}
		d := fault.Backoff(attempt, c.rng)
		rec.Think(d)
		t += uint64(d)
	}
	c.Stats.Failures++
	return false, t - now
}
