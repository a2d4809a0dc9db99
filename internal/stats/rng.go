// Package stats provides the statistical primitives shared by the
// simulator and the measurement engine: a deterministic, splittable
// random number generator, empirical CDFs, histograms, quantiles, and
// samplers for the heavy-tailed distributions that appear throughout
// the Helium network (ownership, traffic, relay fan-out).
//
// Everything in this package is deterministic given a seed so that a
// simulated world — and therefore every figure and table derived from
// it — is exactly reproducible.
package stats

import (
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is deliberately not crypto-grade: its job is
// reproducible simulation, not key material. The zero value is not
// usable; construct with NewRNG.
//
// RNG is not safe for concurrent use; Split off independent streams
// for concurrent consumers instead of sharing one generator.
type RNG struct {
	seed uint64
	s    [4]uint64
}

// NewRNG returns a generator seeded from a single 64-bit seed using
// splitmix64 to fill the internal state, as recommended by the
// xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{seed: seed}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator identified by label. The
// child's stream is a pure function of r's construction seed and the
// label: splitting neither consumes r's stream nor depends on how many
// values r has already produced, so concurrent sub-models can be handed
// their streams in any order — worker scheduling included — and always
// receive the same sequences. Distinct labels (and distinct parents)
// give decorrelated streams, and nested splits compose:
// r.Split("a").Split("b") differs from r.Split("b").Split("a").
func (r *RNG) Split(label string) *RNG {
	// FNV-1a over the label, then a splitmix64 finalizer round against
	// the parent seed. The asymmetric mix keeps nested splits
	// non-commutative.
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(mix64(mix64(r.seed+0x9e3779b97f4a7c15) ^ h))
}

// mix64 is the splitmix64 output function: a strong 64-bit finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Exponential returns an exponentially distributed value with the
// given rate λ (mean 1/λ).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Pareto returns a Pareto(xm, alpha) distributed value: heavy-tailed,
// minimum xm, tail exponent alpha. Used for ownership and relay
// fan-out tails.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean,
// using Knuth's method for small means and a normal approximation for
// large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		// Normal approximation with continuity correction.
		n := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns the number of Bernoulli(p) failures before the
// first success (support {0, 1, 2, ...}). p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Shuffle permutes the n elements addressed by swap using the
// Fisher–Yates algorithm.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index in [0, len(weights)) chosen with
// probability proportional to weights[i]. Zero or negative weights are
// treated as zero. It panics if the total weight is not positive.
func (r *RNG) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedChoice with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
