// Package dp implements the differential-privacy substrate the 1-cluster
// algorithms are built from:
//
//   - privacy parameters (ε, δ) and composition accounting — basic
//     (Theorem 2.1) and advanced (Theorem 4.7, Dwork–Rothblum–Vadhan);
//   - the Laplace mechanism for low-L1-sensitivity queries (Theorem 2.3);
//   - the exponential mechanism of McSherry–Talwar for private selection;
//   - report-noisy-max, the standard selection alternative;
//   - NoisyAverage (Algorithm 5, Appendix A): the private average of a
//     bounded-diameter set of vectors with only an additive Gaussian error
//     (the Gaussian mechanism of Theorem 2.4).
//
// Every mechanism takes an explicit *rand.Rand for reproducibility.
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/noise"
)

// Params carries an (ε, δ) differential-privacy guarantee or budget.
// δ = 0 denotes pure differential privacy.
type Params struct {
	Epsilon float64
	Delta   float64
}

// Validate returns an error unless ε > 0 and δ ∈ [0, 1).
func (p Params) Validate() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("dp: epsilon must be positive and finite, got %v", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("dp: delta must be in [0,1), got %v", p.Delta)
	}
	return nil
}

func (p Params) String() string {
	return fmt.Sprintf("(ε=%g, δ=%g)-DP", p.Epsilon, p.Delta)
}

// Split divides the budget evenly into k parts under basic composition:
// running k mechanisms each (ε/k, δ/k)-DP yields (ε, δ)-DP (Theorem 2.1).
func (p Params) Split(k int) Params {
	if k <= 0 {
		panic("dp: Split with non-positive k")
	}
	return Params{Epsilon: p.Epsilon / float64(k), Delta: p.Delta / float64(k)}
}

// Scale returns the budget multiplied by c on both coordinates.
func (p Params) Scale(c float64) Params {
	return Params{Epsilon: p.Epsilon * c, Delta: p.Delta * c}
}

// ComposeAdvanced returns the guarantee of k adaptive uses of an (ε, δ)-DP
// mechanism under advanced composition (Theorem 4.7, [11]):
// (2kε² + ε·sqrt(2k·ln(1/δ')), kδ + δ')-DP.
//
// No mechanism calls it yet. It stays for the planned per-query spend
// check, which composes GoodCenter's d per-axis choices as one
// advanced-composition block.
func ComposeAdvanced(p Params, k int, deltaPrime float64) Params {
	if k <= 0 {
		panic("dp: ComposeAdvanced with non-positive k")
	}
	if deltaPrime <= 0 || deltaPrime >= 1 {
		panic("dp: ComposeAdvanced deltaPrime out of (0,1)")
	}
	kf := float64(k)
	eps := 2*kf*p.Epsilon*p.Epsilon + p.Epsilon*math.Sqrt(2*kf*math.Log(1/deltaPrime))
	return Params{Epsilon: eps, Delta: kf*p.Delta + deltaPrime}
}

// Accountant tracks privacy budget spent by a sequence of mechanisms under
// basic composition, and refuses to exceed a configured limit. The 1-cluster
// pipeline uses it in tests to assert that GoodRadius + GoodCenter stay
// within the advertised (ε, δ).
type Accountant struct {
	limit Params
	spent Params
}

// NewAccountant returns an accountant with the given total budget.
func NewAccountant(limit Params) (*Accountant, error) {
	if err := limit.Validate(); err != nil {
		return nil, err
	}
	return &Accountant{limit: limit}, nil
}

// Spend registers a mechanism invocation. It returns an error (and records
// nothing) if the invocation would exceed the budget.
func (a *Accountant) Spend(p Params) error {
	const slack = 1e-9 // tolerate float accumulation error
	newEps := a.spent.Epsilon + p.Epsilon
	newDelta := a.spent.Delta + p.Delta
	if newEps > a.limit.Epsilon*(1+slack)+slack || newDelta > a.limit.Delta*(1+slack)+slack {
		return fmt.Errorf("dp: budget exceeded: spending %v on top of %v exceeds %v", p, a.spent, a.limit)
	}
	a.spent.Epsilon = newEps
	a.spent.Delta = newDelta
	return nil
}

// Spent returns the budget consumed so far.
func (a *Accountant) Spent() Params { return a.spent }

// Remaining returns the unspent budget (coordinates clipped at zero).
func (a *Accountant) Remaining() Params {
	return Params{
		Epsilon: math.Max(0, a.limit.Epsilon-a.spent.Epsilon),
		Delta:   math.Max(0, a.limit.Delta-a.spent.Delta),
	}
}

// LaplaceMechanism releases value + Lap(l1Sensitivity/ε), which is
// (ε, 0)-DP for an L1-sensitivity-l1Sensitivity query (Theorem 2.3).
func LaplaceMechanism(rng *rand.Rand, value, l1Sensitivity, epsilon float64) float64 {
	if l1Sensitivity <= 0 || epsilon <= 0 {
		panic("dp: LaplaceMechanism requires positive sensitivity and epsilon")
	}
	return value + noise.Laplace(rng, l1Sensitivity/epsilon)
}

// NoisyCount releases a sensitivity-1 count under (ε, 0)-DP.
func NoisyCount(rng *rand.Rand, count int, epsilon float64) float64 {
	return LaplaceMechanism(rng, float64(count), 1, epsilon)
}

// ErrNoCandidates is returned by selection mechanisms invoked with an empty
// candidate list.
var ErrNoCandidates = errors.New("dp: no candidates")

// ExponentialMechanism privately selects an index into scores, sampling
// index i with probability ∝ exp(ε·scoreᵢ/(2·sensitivity)). It satisfies
// (ε, 0)-DP when each score has the stated sensitivity (McSherry–Talwar).
//
// Scores may be any finite floats; −Inf excludes a candidate outright.
func ExponentialMechanism(rng *rand.Rand, scores []float64, sensitivity, epsilon float64) (int, error) {
	if len(scores) == 0 {
		return 0, ErrNoCandidates
	}
	if sensitivity <= 0 || epsilon <= 0 {
		return 0, fmt.Errorf("dp: exponential mechanism requires positive sensitivity and epsilon")
	}
	// Normalize by the max score so exponentials do not overflow.
	maxS := math.Inf(-1)
	for _, s := range scores {
		if math.IsNaN(s) {
			return 0, fmt.Errorf("dp: NaN score")
		}
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return 0, fmt.Errorf("dp: all candidates excluded (−Inf scores)")
	}
	coef := epsilon / (2 * sensitivity)
	weights := make([]float64, len(scores))
	var total float64
	for i, s := range scores {
		if math.IsInf(s, -1) {
			weights[i] = 0
			continue
		}
		w := math.Exp(coef * (s - maxS))
		weights[i] = w
		total += w
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i, nil
		}
	}
	// Floating point edge: return last non-excluded candidate.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dp: exponential mechanism failed to sample")
}

// ReportNoisyMax adds Lap(2·sensitivity/ε) to each score and returns the
// argmax, an (ε, 0)-DP selection primitive.
func ReportNoisyMax(rng *rand.Rand, scores []float64, sensitivity, epsilon float64) (int, error) {
	if len(scores) == 0 {
		return 0, ErrNoCandidates
	}
	if sensitivity <= 0 || epsilon <= 0 {
		return 0, fmt.Errorf("dp: report-noisy-max requires positive sensitivity and epsilon")
	}
	best, bestVal := 0, math.Inf(-1)
	scale := 2 * sensitivity / epsilon
	for i, s := range scores {
		v := s + noise.Laplace(rng, scale)
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best, nil
}
