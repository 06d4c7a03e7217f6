// Package gen builds synthetic road networks and query workloads for the
// OPAQUE experiments.
//
// The paper evaluates on real road maps (Tiger/Line). Those data files are
// not available offline, so this package provides generators that reproduce
// the structural properties the OPAQUE algorithms depend on: planar
// embedding, locality (most edges connect nearby nodes), non-negative edge
// costs roughly proportional to Euclidean length, and heterogeneous node
// density (downtown cores vs. suburbs). All generators are deterministic
// given a seed, so every experiment is reproducible.
package gen

// rng is a small, allocation-free deterministic pseudo-random generator
// (SplitMix64 core) used by all generators and workloads. Using our own
// generator keeps network construction byte-for-byte reproducible across Go
// releases, unlike math/rand whose stream is not guaranteed stable.
type rng struct {
	state uint64
}

// newRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant so the stream is never degenerate).
func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{state: seed}
}

// next64 advances the state and returns 64 random bits.
func (r *rng) next64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.next64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with non-positive n")
	}
	return int(r.next64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *rng) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns an approximately standard-normal value using the sum of 12
// uniforms (Irwin–Hall); adequate for placing hotspot clusters.
func (r *rng) Norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Perm returns a random permutation of [0, n).
func (r *rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
