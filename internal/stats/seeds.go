package stats

// Seeds returns n deterministic seeds derived from a base seed: the seed
// list of a multi-seed run, such as the figures driver's -seeds replicas.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	x := base
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
