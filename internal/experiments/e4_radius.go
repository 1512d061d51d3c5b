package experiments

import (
	"math"
	"math/rand"

	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "radius-w",
		Artifact: "Theorem 3.2 / Lemma 3.7 — radius factor w = O(√log n), independent of d",
		Run:      runRadiusW,
	})
}

// runRadiusW sweeps n at fixed d and measures the radius approximation
// factor. Theorem 3.2 predicts w ∝ √k with k = Θ(log n): the released
// radius divided by √k should stay flat as n grows, and the *effective*
// radius (smallest ball around the released center that actually covers t
// points — the honest post-hoc measure) should be far below the released
// worst-case radius.
func runRadiusW(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	ns := []int{400, 800, 1600, 3200}
	trials := 3
	if quick {
		ns = []int{400, 800}
		trials = 1
	}
	const d = 8

	tb := bench.NewTable("w vs n (d=8 planted ball, ε=2, δ=0.05)",
		"n", "k", "2approx r", "released R", "w=R/r2", "w/√k", "effective R", "w_eff")
	tb.Note = "w/√k flat across the n sweep is the √log n shape; k is the JL/identity dimension used"

	grid, err := geometry.NewGrid(1024, d)
	if err != nil {
		panic(err)
	}
	for _, n := range ns {
		inst, err := workload.PlantedBall{N: n, ClusterSize: 3 * n / 5, Radius: 0.02}.Generate(rng, grid)
		if err != nil {
			panic(err)
		}
		t := n / 2
		// Every n here is at most core.ExactIndexMaxN, where the pipeline's
		// IndexAuto builds exactly this index: one build serves the
		// reference radius and every trial.
		ix, err := geometry.NewDistanceIndexFrame(frameOf(inst.Points))
		if err != nil {
			panic(err)
		}
		_, r2, err := ix.TwoApprox(t)
		if err != nil {
			panic(err)
		}
		prm := core.Params{T: t, Privacy: dp.Params{Epsilon: 2, Delta: 0.05}, Beta: 0.1, Grid: grid}
		var rel, eff, ws, wsk, weff []float64
		k := 0
		for i := 0; i < trials; i++ {
			res, err := core.OneCluster(rng, ix, prm)
			if err != nil {
				continue
			}
			k = res.K
			er := bench.EffectiveRadius(inst.Points, res.Ball.Center, t)
			rel = append(rel, res.Ball.Radius)
			eff = append(eff, er)
			ws = append(ws, res.Ball.Radius/r2)
			wsk = append(wsk, res.Ball.Radius/r2/math.Sqrt(float64(res.K)))
			weff = append(weff, er/r2)
		}
		if len(rel) == 0 {
			tb.AddRow(n, "-", r2, "-", "-", "-", "-", "-")
			continue
		}
		tb.AddRow(n, k, r2, bench.Mean(rel), bench.Mean(ws), bench.Mean(wsk),
			bench.Mean(eff), bench.Mean(weff))
	}
	return []*bench.Table{tb}
}
