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

// Config parameterizes an arrival source. Rate is the only mandatory field;
// the pattern-specific knobs all have workable defaults applied by New.
type Config struct {
	Pattern Pattern
	// Rate is the mean arrival rate in requests per cycle (e.g. 4e-5 is
	// 10k req/s at the 250 MHz clock). For Poisson, Bursty, and Diurnal it
	// is the long-run mean; for Flash it is the pre-spike base rate.
	Rate float64

	// BurstFactor multiplies the rate inside the burst state (> 1).
	BurstFactor float64
	// BurstFrac is the long-run fraction of time spent bursting (0, 1).
	BurstFrac float64
	// BurstDwellCycles is the mean dwell time of the burst state; the quiet
	// state's dwell follows from BurstFrac.
	BurstDwellCycles uint64

	// PeriodCycles is the diurnal period on the simulated clock.
	PeriodCycles uint64
	// DiurnalAmplitude in [0, 1) swings the rate between Rate*(1-A) and
	// Rate*(1+A) over each period.
	DiurnalAmplitude float64

	// FlashAt is the spike's start cycle; FlashRamp/FlashHold/FlashDecay
	// shape it (linear up, plateau, linear down).
	FlashAt, FlashRamp, FlashHold, FlashDecay uint64
	// FlashFactor is the plateau rate multiplier (> 1).
	FlashFactor float64
}

// Defaults fills zero-valued pattern knobs. The burst defaults give 4x
// bursts about 12% of the time with 8 ms dwells; the diurnal default is one
// "day" per 200 Mcy (800 ms) swinging ±80%; the flash default is a 6x spike
// ramping over 4 Mcy, holding 20 Mcy.
func (c Config) Defaults() Config {
	if c.BurstFactor == 0 {
		c.BurstFactor = 4
	}
	if c.BurstFrac == 0 {
		c.BurstFrac = 0.125
	}
	if c.BurstDwellCycles == 0 {
		c.BurstDwellCycles = 2_000_000
	}
	if c.PeriodCycles == 0 {
		c.PeriodCycles = 200_000_000
	}
	if c.DiurnalAmplitude == 0 {
		c.DiurnalAmplitude = 0.8
	}
	if c.FlashFactor == 0 {
		c.FlashFactor = 6
	}
	if c.FlashRamp == 0 {
		c.FlashRamp = 4_000_000
	}
	if c.FlashHold == 0 {
		c.FlashHold = 20_000_000
	}
	if c.FlashDecay == 0 {
		c.FlashDecay = 8_000_000
	}
	return c
}

// Bounds that keep every accepted process cheap to sample.
const (
	// maxRate is one arrival per cycle, the finest the clock resolves.
	maxRate = 1.0
	// maxFlashFactor bounds the spike: off the spike, thinning draws about
	// FlashFactor candidates per accepted arrival.
	maxFlashFactor = 1000.0
)

// Validate rejects configurations that cannot generate a process, or that
// would take unbounded work per arrival to generate one.
func (c Config) Validate() error {
	if int(c.Pattern) >= int(numPatterns) {
		return fmt.Errorf("arrival: unknown pattern %d", c.Pattern)
	}
	if !(c.Rate > 0 && c.Rate <= maxRate) {
		return fmt.Errorf("arrival: rate %g outside (0, %g] per cycle", c.Rate, maxRate)
	}
	switch c.Pattern {
	case Bursty:
		if !(c.BurstFactor > 1) || math.IsInf(c.BurstFactor, 1) {
			return fmt.Errorf("arrival: burst factor %g must be finite and exceed 1", c.BurstFactor)
		}
		if !(c.BurstFrac > 0 && c.BurstFrac < 1) {
			return fmt.Errorf("arrival: burst fraction %g outside (0, 1)", c.BurstFrac)
		}
		// A burst that holds less than one arrival on average is no burst,
		// and the process would flip state many times per arrival.
		burst := c.Rate / (1 - c.BurstFrac + c.BurstFrac*c.BurstFactor) * c.BurstFactor
		if !(burst*float64(c.BurstDwellCycles) >= 1) {
			return fmt.Errorf("arrival: burst dwell %d holds %.3g arrivals at burst rate %g, want at least 1",
				c.BurstDwellCycles, burst*float64(c.BurstDwellCycles), burst)
		}
	case Diurnal:
		if c.PeriodCycles == 0 {
			return fmt.Errorf("arrival: diurnal period must be positive")
		}
		if !(c.DiurnalAmplitude >= 0 && c.DiurnalAmplitude < 1) {
			return fmt.Errorf("arrival: diurnal amplitude %g outside [0, 1)", c.DiurnalAmplitude)
		}
	case Flash:
		if !(c.FlashFactor > 1 && c.FlashFactor <= maxFlashFactor) {
			return fmt.Errorf("arrival: flash factor %g outside (1, %g]", c.FlashFactor, maxFlashFactor)
		}
		if c.FlashRamp == 0 || c.FlashDecay == 0 {
			return fmt.Errorf("arrival: flash ramp and decay must be positive")
		}
		if up := c.FlashRamp + c.FlashHold; up < c.FlashRamp || up+c.FlashDecay < up {
			return fmt.Errorf("arrival: flash spike length overflows the clock")
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

	// Generated counts emitted arrivals.
	Generated uint64
}

// New builds a source from cfg (defaults applied) drawing from rng, which
// must be a dedicated stream derived from the run seed.
func New(cfg Config, rng *simrand.Rand) (*Source, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, rng: rng}
	if cfg.Pattern == Bursty {
		// Solve quiet/burst rates so frac*burst + (1-frac)*quiet = Rate with
		// burst = factor*quiet.
		s.quietRate = cfg.Rate / (1 - cfg.BurstFrac + cfg.BurstFrac*cfg.BurstFactor)
		s.burstRate = s.quietRate * cfg.BurstFactor
		s.scheduleState(0)
	}
	return s, nil
}

// Config returns the source's effective (defaulted) configuration.
func (s *Source) Config() Config { return s.cfg }

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
		return s.cfg.Rate * (1 + s.cfg.DiurnalAmplitude)
	case Flash:
		return s.cfg.Rate * s.cfg.FlashFactor
	default:
		return s.cfg.Rate
	}
}

func (s *Source) diurnalRate(t uint64) float64 {
	phase := 2 * math.Pi * float64(t%s.cfg.PeriodCycles) / float64(s.cfg.PeriodCycles)
	return s.cfg.Rate * (1 + s.cfg.DiurnalAmplitude*math.Sin(phase))
}

func (s *Source) flashRate(t uint64) float64 {
	c := s.cfg
	base := c.Rate
	if t < c.FlashAt {
		return base
	}
	dt := t - c.FlashAt
	peak := base * c.FlashFactor
	switch {
	case dt < c.FlashRamp:
		return base + (peak-base)*float64(dt)/float64(c.FlashRamp)
	case dt < c.FlashRamp+c.FlashHold:
		return peak
	case dt < c.FlashRamp+c.FlashHold+c.FlashDecay:
		d := dt - c.FlashRamp - c.FlashHold
		return peak - (peak-base)*float64(d)/float64(c.FlashDecay)
	default:
		return base
	}
}

// scheduleState enters the next modulating state at cycle t (bursty only).
// Dwell times are exponential: the chain spends BurstDwellCycles mean in the
// burst state and the complementary time in the quiet state, giving the
// configured long-run burst fraction.
func (s *Source) scheduleState(t uint64) {
	var mean float64
	if s.inBurst {
		mean = float64(s.cfg.BurstDwellCycles)
	} else {
		mean = float64(s.cfg.BurstDwellCycles) * (1 - s.cfg.BurstFrac) / s.cfg.BurstFrac
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
	s.Generated++
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
