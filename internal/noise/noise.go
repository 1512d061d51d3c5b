// Package noise implements the random samplers underlying every
// differentially private mechanism in this repository: Laplace and Gaussian
// noise (Theorems 2.3 and 2.4 of the paper), plus the helpers the analyses
// need (tail bounds, per-coordinate vector noise).
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
	u := rng.Float64() - 0.5
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

// LaplaceVector returns a d-dimensional vector of i.i.d. Lap(scale) noise.
func LaplaceVector(rng *rand.Rand, d int, scale float64) vec.Vector {
	out := make(vec.Vector, d)
	for i := range out {
		out[i] = Laplace(rng, scale)
	}
	return out
}

// GaussianVector returns a d-dimensional vector of i.i.d. N(0, sigma²) noise.
func GaussianVector(rng *rand.Rand, d int, sigma float64) vec.Vector {
	out := make(vec.Vector, d)
	for i := range out {
		out[i] = Gaussian(rng, sigma)
	}
	return out
}

// LaplaceTail returns P[|Lap(scale)| > x] = exp(−x/scale) for x ≥ 0.
// Used to size failure probabilities in utility analyses.
func LaplaceTail(scale, x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-x / scale)
}

// LaplaceQuantile returns the x such that P[|Lap(scale)| > x] = beta,
// i.e. x = scale·ln(1/beta). It panics for beta outside (0, 1].
func LaplaceQuantile(scale, beta float64) float64 {
	if beta <= 0 || beta > 1 {
		panic("noise: LaplaceQuantile beta out of (0,1]")
	}
	return scale * math.Log(1/beta)
}

// GaussianTail returns P[N(0,sigma²) > x] using the complementary error
// function.
func GaussianTail(sigma, x float64) float64 {
	return 0.5 * math.Erfc(x/(sigma*math.Sqrt2))
}

// GaussianSigma returns the noise standard deviation required by the
// Gaussian mechanism (Theorem 2.4) for an L2-sensitivity-k function:
// σ = (k/ε)·sqrt(2·ln(1.25/δ)).
func GaussianSigma(l2Sensitivity, epsilon, delta float64) float64 {
	if l2Sensitivity < 0 || epsilon <= 0 || delta <= 0 || delta >= 1 {
		panic("noise: invalid Gaussian mechanism parameters")
	}
	return l2Sensitivity / epsilon * math.Sqrt(2*math.Log(1.25/delta))
}

// Uniform returns a uniform sample in [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	if hi < lo {
		panic("noise: Uniform with hi < lo")
	}
	return lo + rng.Float64()*(hi-lo)
}

// Exponential returns one sample from the exponential distribution with the
// given rate (density rate·exp(−rate·x) on x ≥ 0). Used by the exponential
// mechanism's Gumbel-free sampling path in tests.
func Exponential(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		panic("noise: non-positive exponential rate")
	}
	return rng.ExpFloat64() / rate
}
