// Package xrand provides the deterministic random primitives shared by
// the graph generators, workload generators and simulator: a splittable
// 64-bit PRNG and an alias table for O(1) weighted sampling.
//
// Determinism policy: every stochastic component in this repository
// takes an explicit seed and derives independent streams with Split,
// so a top-level experiment seed fully determines all results.
package xrand

import "math"

// RNG is a splitmix64 generator. It is tiny, fast, and — unlike a
// shared math/rand source — trivially splittable into independent
// streams, which the simulator uses to give each processing unit and
// each query generator its own stream.
//
// The zero value is a valid generator seeded with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Reseed resets r to the exact stream of New(seed). It lets hot paths
// keep an RNG by value (or embedded in a reusable workspace) instead
// of allocating a fresh generator per query.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Split derives an independent generator from r. The derived stream is
// decorrelated from the parent by an extra mixing step.
func (r *RNG) Split() *RNG { return &RNG{state: mix(r.Uint64() ^ 0x9e3779b97f4a7c15)} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// Shuffle permutes the first n elements using swap, Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Alias is a Walker alias table for O(1) sampling from a fixed
// discrete distribution.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table over the given non-negative weights.
// It panics if weights is empty or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("xrand: NewAlias with no weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("xrand: NewAlias weight must be finite and non-negative")
		}
		sum += w
	}
	if sum == 0 {
		panic("xrand: NewAlias weights sum to zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index distributed according to the weights.
func (a *Alias) Sample(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
