// Package simrand provides a small, deterministic pseudo-random toolkit for
// the simulator. Every stochastic decision in the simulation draws from a
// *Rand seeded explicitly, so a whole experiment is reproducible from a
// single seed and independent of the Go runtime's math/rand evolution.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill, 2014): a 64-bit LCG state with
// an output permutation. It is fast, has a 2^63 choice of disjoint streams,
// and passes the statistical tests that matter at simulation scale.
package simrand

import "math"

const pcgMultiplier = 6364136223846793005

// Rand is a deterministic PCG-XSH-RR 64/32 generator. The zero value is not
// valid; construct with New or Derive.
type Rand struct {
	state uint64
	inc   uint64
}

// New returns a generator for the given seed on the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator for the given seed on stream `stream`.
// Different streams with the same seed produce statistically independent
// sequences; the simulator gives every thread/component its own stream so
// that adding a consumer never perturbs another consumer's draws.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{inc: (stream << 1) | 1}
	r.state = r.inc + seed
	r.Uint32()
	return r
}

// Derive returns a new independent generator whose stream is derived from
// this generator's next output and the given salt. It is the standard way to
// fan out per-entity RNGs (per thread, per warehouse, per component).
func (r *Rand) Derive(salt uint64) *Rand {
	return NewStream(uint64(r.Uint32())<<32|uint64(r.Uint32()), salt^0x9e3779b97f4a7c15)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible at simulation scale
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("simrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Zipf draws from a bounded Zipf distribution over [0, n) with exponent s.
// Small ranks are the most popular. The sampler precomputes the inverse CDF
// in O(n) once, then samples in O(log n); it is the workhorse behind skewed
// object popularity (hot customers, hot cache lines, hot functions).
type Zipf struct {
	cdf []float64 // cdf[i] = P(rank <= i)
	r   *Rand
}

// NewZipf builds the table of a Zipf distribution over n items with
// exponent s (s > 0; s≈1 is classic Zipf; larger s is more skewed); With
// makes samplers over it. It panics if n <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// With returns a sampler over z's table that draws from r. Samplers made
// this way share one read-only table, so many streams (one per worker
// thread) cost one O(n) build.
func (z *Zipf) With(r *Rand) *Zipf { return &Zipf{cdf: z.cdf, r: r} }

// N returns the number of items in the sampler's domain.
func (z *Zipf) N() int { return len(z.cdf) }

// Next draws a rank in [0, n), rank 0 being the most popular.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Mix64 is SplitMix64's finalizer: a cheap stateless hash used to turn
// structured identifiers (thread ID, op ID) into well-mixed seeds.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
