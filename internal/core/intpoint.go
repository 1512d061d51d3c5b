package core

import (
	"fmt"
	"math/rand"
	"sort"

	"privcluster/internal/dp"
	"privcluster/internal/recconcave"
	"privcluster/internal/vec"
)

// IntPointResult is the outcome of Algorithm IntPoint.
type IntPointResult struct {
	// Point is the released value; with probability ≥ 1−2β it is an
	// interior point of the input: min(S) ≤ Point ≤ max(S) (Theorem 5.3).
	Point float64
	// FromZeroRadius marks the shortcut where the 1-cluster stage returned
	// a radius-zero interval.
	FromZeroRadius bool
}

// IntPointParams configures the reduction.
type IntPointParams struct {
	// InnerN is the size n of the middle sub-database handed to the
	// 1-cluster algorithm; the remaining (m−n)/2 points on each side supply
	// the quality promise. Must satisfy InnerN < m.
	InnerN int
	// Cluster configures the inner 1-cluster run (its Grid must be 1-D and
	// T ≤ InnerN).
	Cluster Params
	// Privacy is the budget of the final RecConcave selection; the total
	// guarantee is the (2ε, 2δ)-style composition of Theorem 5.3.
	Privacy dp.Params
	Beta    float64
	// WidthFactor is the w of the reduction: I is split into intervals of
	// length r/w (Algorithm 3 Step 3). Defaults to 8.
	WidthFactor int
}

// IntPointMiddleSorted returns Algorithm 3 Step 1's sub-database — the
// middle innerN entries of the (already sorted) values — as a 1-D frame
// that aliases sorted. Exported so the public API, which keeps a handle's
// 1-D values sorted, can run the same feasibility pre-flight on exactly the
// points the 1-cluster stage will see — before any budget is spent —
// without paying a fresh copy and sort per query.
func IntPointMiddleSorted(sorted []float64, innerN int) *vec.Frame {
	lo := (len(sorted) - innerN) / 2
	f, _ := vec.FrameFromData(sorted[lo:lo+innerN:lo+innerN], 1) // stride 1 divides any length
	return f
}

// IntPoint implements Algorithm 3 (Section 5): it solves the interior-point
// problem on X via any solver for the 1-cluster problem, the reduction that
// transfers the Bun et al. lower bound (n = Ω(log*|X|)) to 1-cluster.
//
// Values are 1-D points in [0, 1] (the grid's unit interval).
func IntPoint(rng *rand.Rand, values []float64, prm IntPointParams) (IntPointResult, error) {
	m := len(values)
	if prm.WidthFactor <= 0 {
		prm.WidthFactor = 8
	}
	if prm.Beta == 0 {
		prm.Beta = 0.1
	}
	if prm.InnerN <= 0 || prm.InnerN >= m {
		return IntPointResult{}, fmt.Errorf("core: IntPoint needs 0 < InnerN < m, got %d/%d", prm.InnerN, m)
	}
	if prm.Cluster.Grid.Dim != 1 {
		return IntPointResult{}, fmt.Errorf("core: IntPoint requires a 1-D grid, got dim %d", prm.Cluster.Grid.Dim)
	}
	if err := prm.Privacy.Validate(); err != nil {
		return IntPointResult{}, err
	}

	// Step 1: D = the middle n entries of sorted S. The sorted copy is kept
	// for Step 4's quality counts.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	middle := IntPointMiddleSorted(sorted, prm.InnerN)

	// Step 2: run the 1-cluster algorithm on D.
	var res ClusterResult
	ix, err := NewBallIndexFrame(middle, prm.Cluster.Grid, prm.Cluster.Index, prm.Cluster.Profile.Workers)
	if err == nil {
		res, err = OneCluster(rng, ix, prm.Cluster)
	}
	if err != nil {
		return IntPointResult{}, fmt.Errorf("core: IntPoint cluster stage: %w", err)
	}
	c := res.Ball.Center[0]
	r := res.Ball.Radius
	if res.ZeroCluster || r == 0 {
		return IntPointResult{Point: c, FromZeroRadius: true}, nil
	}

	// Step 3: J = edge points of the partition of I = [c−r, c+r] into
	// intervals of length r/w.
	w := prm.WidthFactor
	step := r / float64(w)
	edges := make([]float64, 0, 2*w+1)
	for i := 0; i <= 2*w; i++ {
		edges = append(edges, c-r+float64(i)*step)
	}

	// Step 4: choose j ∈ J via RecConcave with quality
	// q(S, a) = min(#{x ≤ a}, #{x ≥ a}) and promise (m−n)/2.
	quality := make([]float64, len(edges))
	for i, a := range edges {
		le := sort.SearchFloat64s(sorted, a)
		// #{x ≤ a}: extend over ties.
		for le < m && sorted[le] <= a {
			le++
		}
		ge := m - sort.SearchFloat64s(sorted, a)
		quality[i] = float64(min(le, ge))
	}
	q, err := recconcave.FromValues(quality)
	if err != nil {
		return IntPointResult{}, err
	}
	promise := float64(m-prm.InnerN) / 2
	idx, err := recconcave.Solve(rng, q, promise, recconcave.Options{
		Alpha:   0.5,
		Beta:    prm.Beta,
		Privacy: prm.Privacy,
		Ctx:     prm.Cluster.Ctx,
	})
	if err != nil {
		return IntPointResult{}, fmt.Errorf("core: IntPoint selection: %w", err)
	}
	return IntPointResult{Point: edges[idx]}, nil
}
