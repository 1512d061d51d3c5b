// Package noise implements the random samplers underlying every
// differentially private mechanism in this repository: Laplace and Gaussian
// noise (Theorems 2.3 and 2.4 of the paper), a Gaussian noise vector, and
// uniform draws.
//
// All samplers take an explicit *rand.Rand so that callers control seeding:
// tests run deterministically and concurrent components can hold independent
// generators. A production deployment concerned with floating-point attacks
// on DP noise would use a discrete sampler; that is out of scope for this
// reproduction.
package noise

import (
	"math"
	"math/rand"

	"privcluster/internal/vec"
)

// Laplace returns one sample from the Laplace distribution Lap(scale)
// centered at zero, with density (1/2λ)·exp(−|y|/λ).
//
// It panics if scale <= 0 (a programming error: DP noise scales are derived
// from sensitivity/ε and must be positive).
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		panic("noise: non-positive Laplace scale")
	}
	// Inverse CDF: u uniform on (−1/2, 1/2); x = −λ·sgn(u)·ln(1−2|u|).
	// A draw of at most 2⁻⁵⁵ rounds u to −1/2, where the log is −Inf: redraw it,
	// so every other draw keeps its value.
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// Gaussian returns one sample from N(0, sigma²).
func Gaussian(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		panic("noise: non-positive Gaussian sigma")
	}
	return rng.NormFloat64() * sigma
}

// GaussianVector returns a d-dimensional vector of i.i.d. N(0, sigma²) noise.
func GaussianVector(rng *rand.Rand, d int, sigma float64) vec.Vector {
	out := make(vec.Vector, d)
	for i := range out {
		out[i] = Gaussian(rng, sigma)
	}
	return out
}

// Uniform returns a uniform sample in [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi < lo {
		panic("noise: Uniform with hi < lo")
	}
	return lo + rng.Float64()*(hi-lo)
}
