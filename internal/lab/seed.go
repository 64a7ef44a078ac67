package lab

// Seed discipline: every run in a grid or replication set derives its seed
// deterministically from a base seed and its coordinates, never from
// execution order or a global counter. Runs are therefore reproducible in
// isolation and statistically independent of each other.

// splitmix64 is the finaliser of the SplitMix64 generator — a cheap,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed mixes a base seed with grid coordinates (variant index, load
// index, replica index, …) into a new seed. Nearby bases and coordinates
// yield statistically unrelated seeds.
func DeriveSeed(base int64, coords ...int64) int64 {
	x := splitmix64(uint64(base))
	for _, c := range coords {
		x = splitmix64(x ^ splitmix64(uint64(c)))
	}
	return int64(x)
}

// Seeds returns n replication seeds derived from base — a seed axis for
// Grid.Seeds.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = DeriveSeed(base, int64(i))
	}
	return out
}
