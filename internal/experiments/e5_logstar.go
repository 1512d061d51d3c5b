package experiments

import (
	"math"
	"math/rand"

	"privcluster/internal/baselines"
	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/recconcave"
)

func init() {
	register(Experiment{
		ID:       "delta-logstar",
		Artifact: "Lemma 3.6 / Table 1 — Δ depends on |X| as 2^O(log*) vs the baseline's polylog",
		Run:      runDeltaLogstar,
	})
}

// runDeltaLogstar sweeps the domain size |X| at d = 1 and compares the
// cluster-size loss of this paper's algorithm against the threshold-release
// baseline. The headline: log*|X| is 4–5 for every remotely conceivable
// domain, so the paper's Δ bound is flat across the sweep, while the tree
// baseline's (log|X|)^1.5 keeps climbing; the measured losses follow.
func runDeltaLogstar(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int64{1 << 8, 1 << 16, 1 << 32, 1 << 48}
	trials := 3
	if quick {
		sizes = []int64{1 << 8, 1 << 32}
		trials = 1
	}
	const (
		n           = 1200
		clusterSize = 800
		radius      = 0.02
	)
	t := 600
	eps, delta, beta := 2.0, 0.05, 0.1

	tb := bench.NewTable("Δ vs |X| (d=1, n=1200, t=600, ε=2)",
		"|X|", "log*|X|", "paper Δ bound (×1/ε)", "ours Δ_meas", "tree Δ bound", "tree Δ_meas")
	tb.Note = "bounds are the algorithms' release thresholds; measured Δ = max(0, t − points in released interval/ball), mean of " + bench.F(float64(trials)) + " trials"

	vals := make([]float64, n)
	for i := range vals {
		if i < clusterSize {
			vals[i] = 0.45 + rng.Float64()*2*radius
		} else {
			vals[i] = rng.Float64()
		}
	}

	for _, size := range sizes {
		grid, err := geometry.NewGrid(size, 1)
		if err != nil {
			panic(err)
		}
		points := quantizeAll(grid, vals)

		// Paper bound: the uncapped Γ formula of Algorithm 1 (up to the
		// 1/ε·log(1/βδ) factor common to both columns, what matters is the
		// 8^{log*}·log* growth).
		ls := recconcave.LogStar(2 * float64(size))
		paperBound := math.Pow(8, float64(ls)) * 144 * float64(ls)

		prm := core.Params{T: t, Privacy: dp.Params{Epsilon: eps, Delta: delta}, Beta: beta, Grid: grid}
		ix := indexOf(frameOf(points), prm)
		var oursD []float64
		for i := 0; i < trials; i++ {
			res, err := core.OneCluster(rng, ix, prm)
			if err != nil {
				continue
			}
			count := res.Ball.Count(points)
			oursD = append(oursD, math.Max(0, float64(t-count)))
		}

		treeBound := baselines.TreeHistLossBound(size, eps, beta, n)
		var treeD []float64
		tp := baselines.TreeHistParams{T: t, Epsilon: eps, Beta: beta, GridSize: size}
		for i := 0; i < trials; i++ {
			iv, err := baselines.TreeHistogram1D(rng, vals, tp)
			if err != nil {
				continue
			}
			treeD = append(treeD, math.Max(0, float64(t-iv.Count(vals))))
		}

		oursCell := "-"
		if len(oursD) > 0 {
			oursCell = bench.F(bench.Mean(oursD))
		}
		treeCell := "-"
		if len(treeD) > 0 {
			treeCell = bench.F(bench.Mean(treeD))
		}
		tb.AddRow(bench.F(float64(size)), ls, paperBound, oursCell, treeBound, treeCell)
	}
	return []*bench.Table{tb}
}
