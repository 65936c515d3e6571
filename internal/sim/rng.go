package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a deterministic pseudo-random source with the distributions the
// workload generators need. Each experiment derives all randomness from a
// single seed so runs are exactly reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream. Using labelled forks (one per
// traffic source) keeps workloads stable when unrelated components consume
// different amounts of randomness.
func (g *RNG) Fork(label int64) *RNG {
	// SplitMix-style avalanche of (seed draw, label) to decorrelate streams.
	x := uint64(g.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return NewRNG(int64(x & math.MaxInt64))
}

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// PermInto fills m with a random permutation of [0, len(m)) and returns
// it. It makes exactly math/rand's Perm draws, so it yields Perm's
// permutation and leaves the stream where Perm would, into storage its
// caller reuses.
func (g *RNG) PermInto(m []int) []int {
	for i := range m {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// UniformDuration returns a uniform duration in [lo, hi].
func (g *RNG) UniformDuration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(g.r.Int63n(int64(hi-lo)+1))
}

// UniformBytes returns a uniform byte count in [lo, hi].
func (g *RNG) UniformBytes(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Int63n(hi-lo+1)
}

// Pareto returns a bounded Pareto sample with shape alpha and the given
// mean, truncated to [min, max]. The paper's Random pattern draws flow
// sizes from Pareto(shape 1.5, mean 192 MB, bound 768 MB).
//
// For an (unbounded) Pareto with shape a and scale xm the mean is
// a*xm/(a-1), so xm = mean*(a-1)/a. Truncation shifts the realized mean
// slightly below the target, just as it does in NS-3's bounded Pareto
// variable that the paper used.
func (g *RNG) Pareto(alpha, mean, min, max float64) float64 {
	if alpha <= 1 {
		panic("sim: Pareto shape must exceed 1 for a finite mean")
	}
	xm := mean * (alpha - 1) / alpha
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	v := xm / math.Pow(u, 1/alpha)
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}
