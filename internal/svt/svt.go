// Package svt implements the sparse vector technique: Algorithm
// AboveThreshold of Dwork–Naor–Reingold–Rothblum–Vadhan (Theorem 4.8 in the
// paper). A data curator receives an adaptive stream of sensitivity-1
// queries and answers ⊥ ("below") until the first query whose value is
// (noisily) above a fixed threshold, answering ⊤ and halting. The entire
// interaction is (ε, 0)-differentially private regardless of the number of
// ⊥ answers.
//
// GoodCenter uses AboveThreshold to privately pick, among up to
// 2n·log(1/β)/β random re-partitions of R^k into boxes, one repetition in
// which some box captures ≈ t projected input points.
package svt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/noise"
)

// AboveThreshold is a one-shot sparse-vector instance. Create it with New,
// then feed query values via Query until it returns true (⊤) or the query
// budget is exhausted.
type AboveThreshold struct {
	epsilon        float64
	noisyThreshold float64
	rng            *rand.Rand
	halted         bool
	asked          int
}

// ErrHalted is returned by Query after the mechanism has answered ⊤.
var ErrHalted = errors.New("svt: mechanism already halted")

// New creates an AboveThreshold instance with the given threshold and
// privacy parameter ε (pure DP). The threshold is perturbed once with
// Lap(2/ε); each query is perturbed with Lap(4/ε), the standard split.
func New(rng *rand.Rand, threshold, epsilon float64) (*AboveThreshold, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) {
		return nil, fmt.Errorf("svt: epsilon must be positive, got %v", epsilon)
	}
	return &AboveThreshold{
		epsilon:        epsilon,
		noisyThreshold: threshold + noise.Laplace(rng, 2/epsilon),
		rng:            rng,
	}, nil
}

// Query submits the value of one sensitivity-1 query. It returns true (⊤)
// if the noisy value is at least the noisy threshold, after which the
// instance halts; subsequent calls return ErrHalted.
func (a *AboveThreshold) Query(value float64) (bool, error) {
	if a.halted {
		return false, ErrHalted
	}
	a.asked++
	v := value + noise.Laplace(a.rng, 4/a.epsilon)
	if v >= a.noisyThreshold {
		a.halted = true
		return true, nil
	}
	return false, nil
}
