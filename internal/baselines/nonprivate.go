// Package baselines implements the comparison algorithms of Table 1 and the
// non-private references of Section 3's "known facts":
//
//   - NonprivateInterval1D: the exact smallest interval with t points (d=1);
//   - geometry.DistanceIndex.TwoApprox supplies known fact 3 (the trivial
//     2-approximation) and is re-exported here for discoverability;
//   - ExpMech1Cluster: the exponential-mechanism solution (Table 1 row 2),
//     exact radius up to the grid but poly(|X^d|) running time;
//   - PrivateAggregation: an NRS'07-style aggregator (Table 1 row 1) —
//     per-coordinate private median plus a private radius search — which
//     requires a majority cluster (t ≥ 0.51n) and pays a √d factor in the
//     radius;
//   - TreeHistogram1D: query release for threshold functions via the
//     classic dyadic-tree mechanism (Table 1 row 3),
//     whose cluster-size loss grows polylogarithmically with |X| — the
//     contrast to the paper's 2^{O(log*|X|)}.
package baselines

import (
	"fmt"
	"sort"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// Interval1D is a closed interval returned by the 1-D solvers.
type Interval1D struct {
	Center float64
	Radius float64
}

// Contains reports whether x lies in the interval.
func (iv Interval1D) Contains(x float64) bool {
	return x >= iv.Center-iv.Radius && x <= iv.Center+iv.Radius
}

// Count returns the number of values inside the interval.
func (iv Interval1D) Count(values []float64) int {
	n := 0
	for _, v := range values {
		if iv.Contains(v) {
			n++
		}
	}
	return n
}

// NonprivateInterval1D returns the exact smallest interval containing at
// least t of the values — the d=1 ground truth r_opt every experiment
// normalizes against.
func NonprivateInterval1D(values []float64, t int) (Interval1D, error) {
	n := len(values)
	if t < 1 || t > n {
		return Interval1D{}, fmt.Errorf("baselines: t=%d out of [1, %d]", t, n)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	best := Interval1D{Center: (s[0] + s[t-1]) / 2, Radius: (s[t-1] - s[0]) / 2}
	for i := 1; i+t-1 < n; i++ {
		if r := (s[i+t-1] - s[i]) / 2; r < best.Radius {
			best = Interval1D{Center: (s[i] + s[i+t-1]) / 2, Radius: r}
		}
	}
	return best, nil
}

// TwoApproxBall returns the input-centered ball of "known fact 3": radius at
// most 2·r_opt, covering ≥ t points. A convenience wrapper over
// geometry.DistanceIndex for callers that have raw points.
func TwoApproxBall(points []vec.Vector, t int) (geometry.Ball, error) {
	f, err := vec.FrameFromVectors(points)
	if err != nil {
		return geometry.Ball{}, err
	}
	ix, err := geometry.NewDistanceIndexFrame(f)
	if err != nil {
		return geometry.Ball{}, err
	}
	c, r, err := ix.TwoApprox(t)
	if err != nil {
		return geometry.Ball{}, err
	}
	return geometry.Ball{Center: ix.Frame().Row(c), Radius: r}, nil
}
