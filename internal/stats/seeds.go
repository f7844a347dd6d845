package stats

// SeedBase is the base of every seed list: HPCA 2003's opening day.
const SeedBase uint64 = 20030208

// Seeds returns n deterministic seeds derived from SeedBase: the seed list
// of a multi-seed run, such as the figures driver's -seeds replicas.
func Seeds(n int) []uint64 {
	out := make([]uint64, n)
	x := SeedBase
	for i := range out {
		// SplitMix64 step: distinct, well-mixed seeds from a base.
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = z
	}
	return out
}
