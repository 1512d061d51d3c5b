package dp

import (
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/noise"
	"privcluster/internal/vec"
)

// NoisyAverageResult is the outcome of Algorithm NoisyAVG (Algorithm 5).
// Bottom (Aborted == true) means the noisy selected-set size estimate was
// non-positive, in which case no average is released.
type NoisyAverageResult struct {
	Average vec.Vector // the released noisy average (nil when Aborted)
	Aborted bool       // ⊥ output of the algorithm
	Sigma   float64    // per-coordinate Gaussian std that was applied
	Count   int        // true number of selected vectors (diagnostic only; never released)
}

// NoisyAverage implements Algorithm NoisyAVG (Appendix A of the paper): an
// (ε, δ)-DP estimate of the average of the vectors v ∈ V with g(v) = 1,
// where the predicate g selects the closed ball of the given radius around
// center (Observation A.2's generalization: the selected set need not be
// centered at the origin, only have bounded diameter Δg = 2·radius).
//
// Following the algorithm verbatim:
//
//  1. m̂ = |{v : g(v)=1}| + Lap(2/ε) − (2/ε)·ln(2/δ); output ⊥ if m̂ ≤ 0.
//  2. σ = (8·Δg/(ε·m̂))·sqrt(2·ln(8/δ)); release avg + N(0, σ²)^d.
//
// The sensitivity bound ‖g(V)−g(V′)‖₂ ≤ 4Δg/(m+1) of Appendix A applies
// with Δg = 2·radius. Inputs outside the predicate ball are excluded by g;
// the caller guarantees nothing about them, which is exactly what makes the
// privacy analysis dataset-independent.
func NoisyAverage(rng *rand.Rand, vectors []vec.Vector, center vec.Vector, radius float64, p Params) (NoisyAverageResult, error) {
	if err := p.Validate(); err != nil {
		return NoisyAverageResult{}, err
	}
	if p.Delta <= 0 {
		return NoisyAverageResult{}, fmt.Errorf("dp: NoisyAverage requires delta > 0")
	}
	if radius < 0 {
		return NoisyAverageResult{}, fmt.Errorf("dp: NoisyAverage negative radius")
	}
	d := center.Dim()

	// Select the vectors inside the predicate ball (g(v) = 1 iff
	// ‖v − center‖₂ ≤ radius). Work in recentered coordinates per
	// Observation A.2.
	var sum vec.Vector = make(vec.Vector, d)
	m := 0
	for _, v := range vectors {
		if v.Dim() != d {
			return NoisyAverageResult{}, vec.ErrDimMismatch
		}
		if v.Dist(center) <= radius {
			// Accumulate v − center without materializing the difference
			// (the per-vector allocation dominates at large selected sets).
			for j := range sum {
				sum[j] += v[j] - center[j]
			}
			m++
		}
	}
	return noisyAverageTail(rng, sum, m, center, radius, p)
}

// NoisyAverageRows is NoisyAverage over rows ids of a frame: the same
// mechanism consuming the same noise stream — releases are bit-identical to
// calling NoisyAverage on the gathered vectors — without materializing the
// gather.
func NoisyAverageRows(rng *rand.Rand, f *vec.Frame, ids []int, center vec.Vector, radius float64, p Params) (NoisyAverageResult, error) {
	if err := p.Validate(); err != nil {
		return NoisyAverageResult{}, err
	}
	if p.Delta <= 0 {
		return NoisyAverageResult{}, fmt.Errorf("dp: NoisyAverage requires delta > 0")
	}
	if radius < 0 {
		return NoisyAverageResult{}, fmt.Errorf("dp: NoisyAverage negative radius")
	}
	d := center.Dim()
	if f != nil && f.Dim() != d {
		return NoisyAverageResult{}, vec.ErrDimMismatch
	}

	var sum vec.Vector = make(vec.Vector, d)
	m := 0
	for _, id := range ids {
		// Same selection comparison as NoisyAverage: √distSq against radius.
		if math.Sqrt(f.DistSq(id, center)) <= radius {
			row := f.Row(id)
			for j := range sum {
				sum[j] += row[j] - center[j]
			}
			m++
		}
	}
	return noisyAverageTail(rng, sum, m, center, radius, p)
}

// noisyAverageTail is the release half shared by both entry points: the
// noisy size test and the Gaussian release over the recentered sum.
func noisyAverageTail(rng *rand.Rand, sum vec.Vector, m int, center vec.Vector, radius float64, p Params) (NoisyAverageResult, error) {
	d := center.Dim()

	// Step 1: noisy size test.
	mHat := float64(m) + noise.Laplace(rng, 2/p.Epsilon) - (2/p.Epsilon)*math.Log(2/p.Delta)
	if mHat <= 0 {
		return NoisyAverageResult{Aborted: true, Count: m}, nil
	}

	// Step 2: Gaussian release. Δg = 2·radius bounds the selected set's
	// diameter. For a zero-radius predicate (all selected points identical)
	// the average needs no noise.
	deltaG := 2 * radius
	var sigma float64
	if deltaG > 0 {
		sigma = 8 * deltaG / (p.Epsilon * mHat) * math.Sqrt(2*math.Log(8/p.Delta))
	}
	avg := make(vec.Vector, d)
	if m > 0 {
		avg = sum.Scale(1 / float64(m))
	}
	if sigma > 0 {
		avg = avg.Add(noise.GaussianVector(rng, d, sigma))
	}
	// Undo the recentering.
	avg = avg.Add(center)
	return NoisyAverageResult{Average: avg, Sigma: sigma, Count: m}, nil
}
