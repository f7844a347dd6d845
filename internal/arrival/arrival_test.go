package arrival

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

// drain emits arrivals until the horizon and returns their times.
func drain(t *testing.T, cfg Config, seed uint64, horizon uint64) []uint64 {
	t.Helper()
	src, err := New(cfg, simrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for {
		at := src.Next()
		if at >= horizon {
			return out
		}
		out = append(out, at)
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal, Flash} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePattern(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePattern("waves"); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Config{
		{Pattern: Poisson, Rate: 0},
		{Pattern: Poisson, Rate: math.Inf(1)},
		{Pattern: numPatterns, Rate: 1e-5},
		// A non-finite rate, and rates that would make one arrival cost
		// unbounded work to generate: past one per cycle, or a bursty rate
		// so low that a burst holds less than one arrival.
		{Pattern: Poisson, Rate: math.NaN()},
		{Pattern: Poisson, Rate: 2},
		{Pattern: Bursty, Rate: 1e-12},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not have", i)
		}
	}
}

// TestDeterminism: same seed, byte-identical sequence; different seeds
// diverge.
func TestDeterminism(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal, Flash} {
		cfg := Config{Pattern: p, Rate: 2e-4, FlashAt: 10_000_000}
		a := drain(t, cfg, 7, 50_000_000)
		b := drain(t, cfg, 7, 50_000_000)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ: %d vs %d", p, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: sequence diverges at %d: %d vs %d", p, i, a[i], b[i])
			}
		}
		c := drain(t, cfg, 8, 50_000_000)
		if len(c) == len(a) {
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%v: different seeds produced identical sequences", p)
			}
		}
	}
}

func TestMonotone(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal, Flash} {
		cfg := Config{Pattern: p, Rate: 5e-4, FlashAt: 5_000_000}
		seq := drain(t, cfg, 3, 30_000_000)
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("%v: time went backwards at %d: %d < %d", p, i, seq[i], seq[i-1])
			}
		}
	}
}

// TestMeanRate: the empirical rate of each stationary pattern lands within
// 10% of the configured mean over a long horizon.
func TestMeanRate(t *testing.T) {
	const horizon = 400_000_000
	const rate = 2e-4
	for _, p := range []Pattern{Poisson, Bursty, Diurnal} {
		cfg := Config{Pattern: p, Rate: rate}
		n := float64(len(drain(t, cfg, 11, horizon)))
		got := n / horizon
		if got < 0.9*rate || got > 1.1*rate {
			t.Errorf("%v: empirical rate %.3g, want within 10%% of %.3g", p, got, rate)
		}
	}
}

// TestBurstyIsBurstier: the variance of per-window arrival counts must be
// clearly super-Poisson (index of dispersion > 1.5 at window ~ dwell time).
func TestBurstyIsBurstier(t *testing.T) {
	const horizon = 400_000_000
	const window = 2_000_000
	disp := func(p Pattern) float64 {
		seq := drain(t, Config{Pattern: p, Rate: 2e-4}, 5, horizon)
		counts := make([]float64, horizon/window)
		for _, at := range seq {
			counts[at/window]++
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		v /= float64(len(counts))
		return v / mean
	}
	poisson, bursty := disp(Poisson), disp(Bursty)
	if poisson > 1.3 {
		t.Errorf("poisson dispersion %.2f, want ~1", poisson)
	}
	if bursty < 1.5 {
		t.Errorf("bursty dispersion %.2f, want > 1.5", bursty)
	}
	if bursty < 1.5*poisson {
		t.Errorf("bursty (%.2f) not clearly burstier than poisson (%.2f)", bursty, poisson)
	}
}

// TestFlashSpike: the arrival rate inside the spike plateau is close to
// flashFactor times the base rate, and returns to base after the decay.
func TestFlashSpike(t *testing.T) {
	const at = 100_000_000
	cfg := Config{Pattern: Flash, Rate: 2e-4, FlashAt: at}
	seq := drain(t, cfg, 13, 300_000_000)
	countIn := func(lo, hi uint64) float64 {
		n := 0
		for _, at := range seq {
			if at >= lo && at < hi {
				n++
			}
		}
		return float64(n) / float64(hi-lo)
	}
	base := countIn(0, at)
	plateau := countIn(at+flashRamp, at+flashRamp+flashHold)
	after := countIn(at+flashRamp+flashHold+flashDecay, 300_000_000)
	if plateau < 4*base {
		t.Errorf("plateau rate %.3g not clearly above base %.3g (want ~6x)", plateau, base)
	}
	if after > 1.5*base {
		t.Errorf("post-spike rate %.3g did not return to base %.3g", after, base)
	}
}

// TestDiurnalSwing: the rate near the sinusoid's peak exceeds the rate near
// its trough by roughly the amplitude ratio.
func TestDiurnalSwing(t *testing.T) {
	cfg := Config{Pattern: Diurnal, Rate: 2e-4}
	seq := drain(t, cfg, 17, 2*periodCycles)
	// Peak is at period/4, trough at 3*period/4 (sin phase).
	var peakN, troughN int
	for _, at := range seq {
		ph := at % periodCycles * 20 / periodCycles // in twentieths
		if ph >= 3 && ph < 7 {
			peakN++
		}
		if ph >= 13 && ph < 17 {
			troughN++
		}
	}
	if troughN == 0 || float64(peakN)/float64(troughN) < 3 {
		t.Errorf("peak/trough arrivals %d/%d, want ratio >= 3 at amplitude 0.8", peakN, troughN)
	}
}

// TestRateEnvelope: the reported instantaneous rate never exceeds PeakRate.
func TestRateEnvelope(t *testing.T) {
	for _, p := range []Pattern{Poisson, Bursty, Diurnal, Flash} {
		cfg := Config{Pattern: p, Rate: 2e-4, FlashAt: 1_000_000}
		src, err := New(cfg, simrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		peak := src.PeakRate()
		for t0 := uint64(0); t0 < 500_000_000; t0 += 1_000_000 {
			if r := src.Rate(t0); r > peak*1.0000001 {
				t.Fatalf("%v: rate(%d) = %g exceeds peak %g", p, t0, r, peak)
			}
		}
	}
}

// TestNextSaturatesAtClockEnd: a rate so low that the gaps overrun the
// 64-bit clock parks the arrivals on its last cycle instead of wrapping
// around to earlier ones.
func TestNextSaturatesAtClockEnd(t *testing.T) {
	for _, cfg := range []Config{
		{Pattern: Poisson, Rate: 1e-300},
		{Pattern: Diurnal, Rate: 1e-300},
		{Pattern: Flash, Rate: 1e-300},
	} {
		src, err := New(cfg, simrand.New(1))
		if err != nil {
			t.Fatalf("%v: %v", cfg.Pattern, err)
		}
		prev := uint64(0)
		for i := 0; i < 1000; i++ {
			at := src.Next()
			if at < prev {
				t.Fatalf("%v: arrival %d at cycle %d precedes the previous one at %d", cfg.Pattern, i, at, prev)
			}
			prev = at
		}
		if prev != math.MaxUint64 {
			t.Errorf("%v: 1000th arrival at cycle %d, want the clock's last cycle", cfg.Pattern, prev)
		}
	}
}
