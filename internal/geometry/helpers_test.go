package geometry

import (
	"context"
	"fmt"
	"math"

	"privcluster/internal/vec"
)

// Test helpers and oracles: no code outside the tests calls them.

// partials runs be.PartialCounts into a fresh buffer of n slots.
func partials(ctx context.Context, be ShardBackend, epoch Epoch, j int, r float64, limit int32, n int) ([]int32, error) {
	out := make([]int32, n)
	return out, be.PartialCounts(ctx, epoch, j, r, limit, out)
}

// RadiusForCount returns the smallest distance r such that the ball of
// radius r around point i contains at least t input points, i.e. the t-th
// smallest distance from point i. It returns an error when t is outside
// [1, n] — like the rest of the package, it never panics on bad library
// input.
func (ix *DistanceIndex) RadiusForCount(i, t int) (float64, error) {
	if t < 1 || t > len(ix.sorted[i]) {
		return 0, fmt.Errorf("geometry: RadiusForCount t=%d out of [1,%d]", t, len(ix.sorted[i]))
	}
	return ix.sorted[i][t-1], nil
}

// OnGrid reports whether v lies (numerically) on the grid.
func (g Grid) OnGrid(v vec.Vector) bool {
	if v.Dim() != g.Dim {
		return false
	}
	s := g.Step()
	for _, x := range v {
		if x < -1e-12 || x > 1+1e-12 {
			return false
		}
		k := math.Round(x / s)
		if math.Abs(x-k*s) > 1e-9*math.Max(1, math.Abs(x)) {
			return false
		}
	}
	return true
}
