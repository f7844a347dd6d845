package arrival

import (
	"testing"

	"repro/internal/simrand"
)

// FuzzArrivalSource asserts the arrival package's input contract: a
// pattern name is rejected or round-trips through String, and every
// configuration Validate accepts builds a source whose arrivals never go
// back in time.
func FuzzArrivalSource(f *testing.F) {
	f.Add("poisson", uint8(Poisson), 5e-5, 0.0, 0.0, uint64(0), uint64(0), 0.0, uint64(0), uint64(0), uint64(0), uint64(0), 0.0, uint64(1))
	f.Add("bursty", uint8(Bursty), 2e-4, 4.0, 0.125, uint64(2_000_000), uint64(0), 0.0, uint64(0), uint64(0), uint64(0), uint64(0), 0.0, uint64(7))
	f.Add("diurnal", uint8(Diurnal), 2e-4, 0.0, 0.0, uint64(0), uint64(100_000_000), 0.8, uint64(0), uint64(0), uint64(0), uint64(0), 0.0, uint64(3))
	f.Add("flash", uint8(Flash), 2e-4, 0.0, 0.0, uint64(0), uint64(0), 0.0, uint64(10_000_000), uint64(4_000_000), uint64(20_000_000), uint64(8_000_000), 6.0, uint64(5))
	f.Add("Poisson", uint8(numPatterns), 1e-300, 1e300, 1e-300, uint64(1), uint64(1), 0.999999, uint64(1<<63), uint64(1<<63), uint64(1), uint64(1), 1e300, uint64(0))
	f.Fuzz(func(t *testing.T, name string, pattern uint8, rate, burstFactor, burstFrac float64,
		dwell, period uint64, amplitude float64, flashAt, ramp, hold, decay uint64, flashFactor float64, seed uint64) {
		if p, err := ParsePattern(name); err == nil && p.String() != name {
			t.Fatalf("ParsePattern(%q) = %v, which prints as %q", name, p, p.String())
		}
		cfg := Config{
			Pattern: Pattern(pattern), Rate: rate,
			BurstFactor: burstFactor, BurstFrac: burstFrac, BurstDwellCycles: dwell,
			PeriodCycles: period, DiurnalAmplitude: amplitude,
			FlashAt: flashAt, FlashRamp: ramp, FlashHold: hold, FlashDecay: decay, FlashFactor: flashFactor,
		}.Defaults()
		src, err := New(cfg, simrand.New(seed))
		if verr := cfg.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("New accepted a configuration Validate rejects (%v): %+v", verr, cfg)
			}
			return
		}
		if err != nil {
			t.Fatalf("New rejected a valid configuration: %v: %+v", err, cfg)
		}
		prev := uint64(0)
		for i := 0; i < 1000; i++ {
			at := src.Next()
			if at < prev {
				t.Fatalf("arrival %d at cycle %d precedes the previous one at %d: %+v", i, at, prev, cfg)
			}
			prev = at
		}
	})
}
