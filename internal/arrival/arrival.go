// Package arrival generates open-system request arrivals on the simulated
// clock. The reproduced workloads are closed-loop — a fixed population of
// warehouses or drivers issues the next request only after the previous one
// completes — so offered load self-throttles and the system can never be
// pushed past saturation. Production middleware lives under *open* traffic:
// users arrive independently of the system's state, keep arriving when it
// slows down, and occasionally all arrive at once. This package models that
// regime.
//
// Four deterministic processes are provided:
//
//   - Poisson: memoryless arrivals at a constant rate — the M/G/k baseline.
//   - Bursty: a two-state Markov-modulated Poisson process (MMPP) that
//     alternates between a quiet state and a burst state; over window sizes
//     longer than the dwell time it produces the bursty, high-variance
//     traffic self-similar models are invoked for, while staying cheap and
//     exactly reproducible.
//   - Diurnal: a sinusoidal rate ramp, the day/night cycle compressed onto
//     the simulated timeline.
//   - Flash: a constant base rate plus one flash-crowd spike — linear ramp
//     up, hold, linear decay — the "everyone saw the same tweet" scenario.
//
// Every draw comes from a dedicated simrand stream, so the same seed yields
// a byte-identical arrival sequence, and attaching an arrival source to a
// run never perturbs any other consumer's stream. Time-varying processes
// (diurnal, flash) are sampled by Lewis-Shedler thinning against the
// pattern's peak rate; the bursty process tracks its modulating state
// explicitly and exploits the exponential distribution's memorylessness at
// state boundaries.
package arrival

import (
	"fmt"
	"math"

	"repro/internal/simrand"
)

// Pattern selects the arrival process shape.
type Pattern uint8

const (
	// Poisson is a homogeneous Poisson process at Config.Rate.
	Poisson Pattern = iota
	// Bursty is a two-state MMPP whose long-run mean rate is Config.Rate.
	Bursty
	// Diurnal modulates the rate sinusoidally around Config.Rate.
	Diurnal
	// Flash is Poisson at Config.Rate plus one flash-crowd spike window.
	Flash
	numPatterns
)

var patternNames = [numPatterns]string{
	Poisson: "poisson",
	Bursty:  "bursty",
	Diurnal: "diurnal",
	Flash:   "flash",
}

// String names the pattern as used on the -arrival flag.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// ParsePattern resolves a -arrival flag value.
func ParsePattern(s string) (Pattern, error) {
	for p, n := range patternNames {
		if n == s {
			return Pattern(p), nil
		}
	}
	return 0, fmt.Errorf("arrival: unknown pattern %q (want poisson, bursty, diurnal, or flash)", s)
}

// Config parameterizes an arrival source. The shape of each pattern is
// fixed by the constants below; the rate and the flash spike's start are
// what a run sets.
type Config struct {
	Pattern Pattern
	// Rate is the mean arrival rate in requests per cycle (e.g. 4e-5 is
	// 10k req/s at the 250 MHz clock). For Poisson, Bursty, and Diurnal it
	// is the long-run mean; for Flash it is the pre-spike base rate.
	Rate float64
	// FlashAt is the flash spike's start cycle.
	FlashAt uint64
}

// Pattern shapes. Bursty gives 4x bursts 12.5% of the time with 8 ms mean
// dwells; Diurnal is one "day" per 200 Mcy (800 ms) swinging ±80%; Flash is
// a 6x spike ramping up linearly over 4 Mcy, holding 20 Mcy and decaying
// linearly over 8 Mcy.
const (
	// burstFactor multiplies the rate inside the burst state.
	burstFactor float64 = 4
	// burstFrac is the long-run fraction of time spent bursting.
	burstFrac float64 = 0.125
	// burstDwellCycles is the mean dwell time of the burst state; the quiet
	// state's dwell follows from burstFrac.
	burstDwellCycles uint64 = 2_000_000

	// periodCycles is the diurnal period on the simulated clock.
	periodCycles uint64 = 200_000_000
	// diurnalAmplitude swings the rate between Rate*(1-A) and Rate*(1+A)
	// over each period.
	diurnalAmplitude float64 = 0.8

	// flashFactor is the spike's plateau rate multiplier; off the spike,
	// thinning draws about flashFactor candidates per accepted arrival.
	flashFactor float64 = 6
	// flashRamp, flashHold and flashDecay shape the spike: linear up,
	// plateau, linear down.
	flashRamp  uint64 = 4_000_000
	flashHold  uint64 = 20_000_000
	flashDecay uint64 = 8_000_000
)

// maxRate is one arrival per cycle, the finest the clock resolves.
const maxRate = 1.0

// Validate rejects configurations that cannot generate a process, or that
// would take unbounded work per arrival to generate one.
func (c Config) Validate() error {
	if int(c.Pattern) >= int(numPatterns) {
		return fmt.Errorf("arrival: unknown pattern %d", c.Pattern)
	}
	if !(c.Rate > 0 && c.Rate <= maxRate) {
		return fmt.Errorf("arrival: rate %g outside (0, %g] per cycle", c.Rate, maxRate)
	}
	if c.Pattern == Bursty {
		// A burst that holds less than one arrival on average is no burst,
		// and the process would flip state many times per arrival.
		burst := c.Rate / (1 - burstFrac + burstFrac*burstFactor) * burstFactor
		if !(burst*float64(burstDwellCycles) >= 1) {
			return fmt.Errorf("arrival: burst dwell %d holds %.3g arrivals at burst rate %g, want at least 1",
				burstDwellCycles, burst*float64(burstDwellCycles), burst)
		}
	}
	return nil
}

// Source generates one arrival sequence. It is single-consumer and not safe
// for concurrent use, like every per-run component of the simulator.
type Source struct {
	cfg Config
	rng *simrand.Rand
	now uint64 // last emitted arrival (or 0)

	// Bursty state: which modulating state is active and until when.
	inBurst  bool
	stateEnd uint64
	// quietRate/burstRate derive from Rate so the long-run mean is Rate.
	quietRate, burstRate float64
}

// New builds a source from cfg drawing from rng, which must be a dedicated
// stream derived from the run seed.
func New(cfg Config, rng *simrand.Rand) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, rng: rng}
	if cfg.Pattern == Bursty {
		// Solve quiet/burst rates so frac*burst + (1-frac)*quiet = Rate with
		// burst = factor*quiet.
		s.quietRate = cfg.Rate / (1 - burstFrac + burstFrac*burstFactor)
		s.burstRate = s.quietRate * burstFactor
		s.scheduleState(0)
	}
	return s, nil
}

// Rate returns the instantaneous expected arrival rate at cycle t, in
// requests per cycle. For the bursty process this is the long-run mean (the
// modulating state is hidden); for diurnal and flash it is the deterministic
// rate function the process is thinned against.
func (s *Source) Rate(t uint64) float64 {
	switch s.cfg.Pattern {
	case Diurnal:
		return s.diurnalRate(t)
	case Flash:
		return s.flashRate(t)
	default:
		return s.cfg.Rate
	}
}

// PeakRate returns the pattern's maximum instantaneous rate — the thinning
// envelope, and the capacity planners' worst case.
func (s *Source) PeakRate() float64 {
	switch s.cfg.Pattern {
	case Bursty:
		return s.burstRate
	case Diurnal:
		return s.cfg.Rate * (1 + diurnalAmplitude)
	case Flash:
		return s.cfg.Rate * flashFactor
	default:
		return s.cfg.Rate
	}
}

func (s *Source) diurnalRate(t uint64) float64 {
	phase := 2 * math.Pi * float64(t%periodCycles) / float64(periodCycles)
	return s.cfg.Rate * (1 + diurnalAmplitude*math.Sin(phase))
}

func (s *Source) flashRate(t uint64) float64 {
	c := s.cfg
	base := c.Rate
	if t < c.FlashAt {
		return base
	}
	dt := t - c.FlashAt
	peak := base * flashFactor
	switch {
	case dt < flashRamp:
		return base + (peak-base)*float64(dt)/float64(flashRamp)
	case dt < flashRamp+flashHold:
		return peak
	case dt < flashRamp+flashHold+flashDecay:
		d := dt - flashRamp - flashHold
		return peak - (peak-base)*float64(d)/float64(flashDecay)
	default:
		return base
	}
}

// scheduleState enters the next modulating state at cycle t (bursty only).
// Dwell times are exponential: the chain spends burstDwellCycles mean in the
// burst state and the complementary time in the quiet state, giving the
// long-run burst fraction burstFrac.
func (s *Source) scheduleState(t uint64) {
	var mean float64
	if s.inBurst {
		mean = float64(burstDwellCycles)
	} else {
		mean = float64(burstDwellCycles) * (1 - burstFrac) / burstFrac
	}
	dwell := s.rng.Exp(mean)
	if dwell < 1 {
		dwell = 1
	}
	s.stateEnd = addCycles(t, dwell)
}

// Next returns the next arrival cycle. The sequence is non-decreasing;
// consecutive arrivals may share a cycle at extreme rates, and once the
// clock runs out every further arrival lands on its last cycle,
// math.MaxUint64.
func (s *Source) Next() uint64 {
	switch s.cfg.Pattern {
	case Bursty:
		s.now = s.nextBursty()
	case Diurnal, Flash:
		s.now = s.nextThinned()
	default:
		s.now = s.after(s.now, s.cfg.Rate)
	}
	return s.now
}

// after draws one exponential inter-arrival gap at the given rate and
// returns the cycle it ends on, counting from t.
func (s *Source) after(t uint64, rate float64) uint64 {
	return addCycles(t, s.rng.Exp(1/rate))
}

// addCycles returns t plus d cycles, rounded down, saturating at the end of
// the clock (math.MaxUint64). d is non-negative, possibly +Inf or NaN.
func addCycles(t uint64, d float64) uint64 {
	if !(d < 1<<63) {
		return math.MaxUint64
	}
	if u := t + uint64(d); u >= t {
		return u
	}
	return math.MaxUint64
}

// nextBursty advances the two-state MMPP. A gap that crosses the current
// state's end is discarded beyond the boundary: by memorylessness the
// arrival process restarts at the boundary under the new state's rate.
func (s *Source) nextBursty() uint64 {
	t := s.now
	for t != math.MaxUint64 {
		rate := s.quietRate
		if s.inBurst {
			rate = s.burstRate
		}
		cand := s.after(t, rate)
		if cand < s.stateEnd {
			return cand
		}
		t = s.stateEnd
		s.inBurst = !s.inBurst
		s.scheduleState(t)
	}
	return t
}

// nextThinned samples the non-homogeneous process by Lewis-Shedler
// thinning: candidate arrivals at the peak rate are accepted with
// probability rate(t)/peak. Both the candidate gap and the acceptance draw
// come from the source's own stream, preserving determinism.
func (s *Source) nextThinned() uint64 {
	peak := s.PeakRate()
	t := s.now
	for {
		t = s.after(t, peak)
		if t == math.MaxUint64 || s.rng.Float64() < s.Rate(t)/peak {
			return t
		}
	}
}
