package baselines

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/noise"
	"privcluster/internal/vec"
)

// PrivAggParams configures the private-aggregation baseline.
type PrivAggParams struct {
	T       int
	Epsilon float64
	Beta    float64
	Grid    geometry.Grid
}

// PrivateAggregation is the Table 1 row 1 baseline in the spirit of Nissim,
// Raskhodnikova and Smith '07: the
// center is the coordinate-wise private median (exponential mechanism over
// grid values with the rank quality), and the radius is a private binary
// search for the smallest ball around that center holding ≈ t points.
//
// The construction reproduces all three documented downsides of the row:
// it requires a *majority* cluster (t ≥ 0.51·n — the coordinate-wise median
// is only inside the cluster's bounding box when the cluster is a majority,
// and the function returns an error otherwise), its radius error compounds
// over coordinates into an Θ(√d) factor, and each coordinate pays a
// log|X|/ε rank error.
//
// Budget: ε/2 split over the d median selections, ε/2 over the radius
// search; pure (ε, 0)-DP.
func PrivateAggregation(rng *rand.Rand, points []vec.Vector, prm PrivAggParams) (geometry.Ball, error) {
	n := len(points)
	if prm.T < 1 || prm.T > n {
		return geometry.Ball{}, fmt.Errorf("baselines: t=%d out of [1, %d]", prm.T, n)
	}
	if float64(prm.T) < 0.51*float64(n) {
		return geometry.Ball{}, fmt.Errorf("baselines: private aggregation requires a majority cluster: t=%d < 0.51·n=%v", prm.T, 0.51*float64(n))
	}
	if prm.Epsilon <= 0 || prm.Beta <= 0 || prm.Beta >= 1 {
		return geometry.Ball{}, fmt.Errorf("baselines: invalid epsilon/beta")
	}
	d := prm.Grid.Dim
	epsMedian := prm.Epsilon / 2 / float64(d)

	center := make(vec.Vector, d)
	coord := make([]float64, n)
	for axis := 0; axis < d; axis++ {
		for i, p := range points {
			coord[i] = p[axis]
		}
		sort.Float64s(coord)
		v, err := privateMedian(rng, coord, prm.Grid, epsMedian)
		if err != nil {
			return geometry.Ball{}, err
		}
		center[axis] = v
	}

	// Private radius search: smallest grid radius whose ball around center
	// holds ≥ t − slack points.
	m := prm.Grid.RadiusGridSize()
	levels := int(math.Ceil(math.Log2(float64(m)))) + 1
	epsCmp := prm.Epsilon / 2 / float64(levels)
	slack := (2 / epsCmp) * math.Log(2*float64(levels)/prm.Beta)
	lo, hi := int64(0), m-1
	for lo < hi {
		mid := (lo + hi) / 2
		noisy := float64(geometry.CountInBall(points, center, prm.Grid.RadiusFromIndex(mid))) +
			noise.Laplace(rng, 1/epsCmp)
		if noisy >= float64(prm.T)-slack {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return geometry.Ball{Center: center, Radius: prm.Grid.RadiusFromIndex(lo)}, nil
}

// privateMedian selects a grid value via the exponential mechanism with the
// (sensitivity-1) rank quality q(v) = −|#{x < v} − #{x > v}|.
func privateMedian(rng *rand.Rand, sorted []float64, g geometry.Grid, eps float64) (float64, error) {
	size := int(g.Size)
	step := g.Step()
	n := len(sorted)
	scores := make([]float64, size)
	for k := 0; k < size; k++ {
		v := float64(k) * step
		below := sort.SearchFloat64s(sorted, v)
		above := n - sort.Search(n, func(i int) bool { return sorted[i] > v })
		scores[k] = -math.Abs(float64(below - above))
	}
	idx, err := dp.ExponentialMechanism(rng, scores, 1, eps)
	if err != nil {
		return 0, err
	}
	return float64(idx) * step, nil
}
