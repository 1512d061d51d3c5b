package recconcave

import (
	"math"

	"privcluster/internal/dp"
)

// Test helpers and oracles: no code outside the tests calls them.

// ConstStepFn returns the constant function v over [0, n).
func ConstStepFn(n int64, v float64) *StepFn {
	return &StepFn{n: n, breaks: []int64{0}, vals: []float64{v}}
}

// Pieces returns the number of constant pieces.
func (s *StepFn) Pieces() int { return len(s.breaks) }

// RequiredPromise returns the quality promise Theorem 4.3 demands:
//
//	8^{log* N} · (36·log* N / (α·ε)) · log(12·log* N / (β·δ)).
//
// GoodRadius's Γ is this expression with its own parameter substitutions.
func RequiredPromise(n int64, alpha float64, p dp.Params, beta float64) float64 {
	ls := float64(LogStar(float64(n)))
	if ls < 1 {
		ls = 1
	}
	return math.Pow(8, ls) * (36 * ls / (alpha * p.Epsilon)) *
		math.Log(12*ls/(beta*p.Delta))
}
