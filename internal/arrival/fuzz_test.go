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
	f.Add("poisson", uint8(Poisson), 5e-5, uint64(0), uint64(1))
	f.Add("bursty", uint8(Bursty), 2e-4, uint64(0), uint64(7))
	f.Add("diurnal", uint8(Diurnal), 2e-4, uint64(0), uint64(3))
	f.Add("flash", uint8(Flash), 2e-4, uint64(10_000_000), uint64(5))
	f.Add("Poisson", uint8(numPatterns), 1e-300, uint64(1<<63), uint64(0))
	f.Fuzz(func(t *testing.T, name string, pattern uint8, rate float64, flashAt, seed uint64) {
		if p, err := ParsePattern(name); err == nil && p.String() != name {
			t.Fatalf("ParsePattern(%q) = %v, which prints as %q", name, p, p.String())
		}
		cfg := Config{Pattern: Pattern(pattern), Rate: rate, FlashAt: flashAt}
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
