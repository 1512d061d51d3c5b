// Package agg implements the sample-and-aggregate framework of Section 6
// (Algorithm SA, Theorem 6.3): compiling an arbitrary — possibly
// non-private — analysis f mapping databases to points in X^d into a
// differentially private analysis, using the 1-cluster algorithm as the
// aggregator.
//
// The construction: subsample n/9 rows i.i.d. from the input, split them
// into k = n/(9m) blocks of size m, evaluate f on each block, and run the
// private 1-cluster algorithm on the k resulting points with target
// t = αk/2. If f is (m, r, α)-stable on the input (Definition 6.1 — a
// random size-m subsample lands within r of some point c with probability
// ≥ α), the released point is (m, w·r, α/8)-stable, where w is the
// 1-cluster approximation factor. Privacy follows from the secrecy of the
// subsample (Lemma 6.4) composed with the aggregator's own guarantee.
package agg

import (
	"fmt"
	"math/rand"

	"privcluster/internal/core"
	"privcluster/internal/vec"
)

// Analysis is the non-private function f being compiled: it maps a database
// (a slice of rows) to a point in the unit cube of prm.Grid's dimension.
type Analysis[R any] func(rows []R) vec.Vector

// Params configures Algorithm SA.
type Params struct {
	// M is the desired stability parameter m: the block size on which f is
	// evaluated.
	M int
	// Alpha is the desired stability probability α ∈ (0, 1].
	Alpha float64
	// Cluster configures the 1-cluster aggregator M (its T is overridden
	// with αk/2 per Algorithm 4 Step 3; its Privacy is the (ε, δ) of the
	// aggregator, which the subsampling lemma then amplifies).
	Cluster core.Params
	// Preflight, when non-nil, is invoked with the frame of quantized
	// evaluations (which the aggregator's index then shares) and the
	// cluster target t = αk/2 just before the budget-spending aggregation;
	// a non-nil return aborts the run with that error. The
	// public API uses it to route Aggregate through the same feasibility
	// pre-flight as FindCluster. It runs after the f evaluations (which
	// consume rng) and must not draw from the rng itself, so a passing
	// check leaves the seeded release stream untouched.
	Preflight func(evals *vec.Frame, t int) error
}

// Result is the outcome of one SA run.
type Result struct {
	// Point is the private estimate z.
	Point vec.Vector
	// Radius is the aggregator ball's radius around z (the w·r of
	// Theorem 6.3 for whatever r the evaluations actually concentrated at).
	Radius float64
	// K is the number of blocks, T the cluster target αk/2 that was used.
	K, T int
	// Evaluations holds the k quantized points y_i = f(D_i), one row each
	// (diagnostic; these are intermediate values the privacy analysis
	// already accounts for — do not release them alongside Point in a real
	// deployment).
	Evaluations *vec.Frame
}

// Run executes Algorithm SA on the given rows.
func Run[R any](rng *rand.Rand, rows []R, f Analysis[R], prm Params) (Result, error) {
	n := len(rows)
	if prm.M < 1 {
		return Result{}, fmt.Errorf("agg: stability parameter m must be ≥ 1, got %d", prm.M)
	}
	if prm.Alpha <= 0 || prm.Alpha > 1 {
		return Result{}, fmt.Errorf("agg: alpha %v out of (0, 1]", prm.Alpha)
	}
	k := n / (9 * prm.M)
	if k < 2 {
		return Result{}, fmt.Errorf("agg: n=%d too small for m=%d (need n ≥ 18m)", n, prm.M)
	}
	t := int(prm.Alpha * float64(k) / 2)
	if t < 1 {
		return Result{}, fmt.Errorf("agg: αk/2 = %v < 1; increase n or alpha", prm.Alpha*float64(k)/2)
	}

	// Step 1: D = n/9 i.i.d. samples from S, split into k blocks of size m.
	// Step 2: evaluate f on each block.
	d := prm.Cluster.Grid.Dim
	evals := vec.NewFrame(k, d)
	block := make([]R, prm.M)
	for i := 0; i < k; i++ {
		for j := range block {
			block[j] = rows[rng.Intn(n)]
		}
		y := f(block)
		if y.Dim() != d {
			return Result{}, fmt.Errorf("agg: analysis returned dimension %d, grid says %d", y.Dim(), d)
		}
		prm.Cluster.Grid.QuantizeInto(evals.Row(i), y)
	}

	if prm.Preflight != nil {
		if err := prm.Preflight(evals, t); err != nil {
			return Result{}, err
		}
	}

	// Step 3: aggregate with the 1-cluster algorithm at t = αk/2.
	cprm := prm.Cluster
	cprm.T = t
	var res core.ClusterResult
	ix, err := core.NewBallIndexFrame(evals, cprm.Grid, cprm.Index, cprm.Profile.Workers)
	if err == nil {
		res, err = core.OneCluster(rng, ix, cprm)
	}
	if err != nil {
		return Result{}, fmt.Errorf("agg: aggregation failed: %w", err)
	}
	return Result{
		Point:       res.Ball.Center,
		Radius:      res.Ball.Radius,
		K:           k,
		T:           t,
		Evaluations: evals,
	}, nil
}
