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
		ID:       "eps-sweep",
		Artifact: "Theorem 3.2 — Δ ∝ 1/ε and the minimal workable budget",
		Run:      runEpsSweep,
	})
}

// runEpsSweep sweeps the privacy budget on a fixed planted instance.
// Theorem 3.2 prices both the size loss Δ and the t-threshold at 1/ε, so
// tightening ε must first inflate the measured loss and then break the run
// entirely (the internal stability thresholds exceed the cluster): the
// table records the success rate, the measured Δ and the radius factor per
// ε, exposing the utility cliff the theory predicts.
func runEpsSweep(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	epsilons := []float64{0.5, 1, 2, 4, 8}
	trials := 5
	if quick {
		epsilons = []float64{1, 4}
		trials = 2
	}
	const (
		n           = 1200
		clusterSize = 800
		t           = 600
		radius      = 0.02
	)

	tb := bench.NewTable("utility vs ε (d=2 planted ball, n=1200, t=600, δ=0.05)",
		"ε", "success rate", "Δ_meas", "w_meas", "raw r / r2")
	tb.Note = "success = pipeline returned a ball; failures are the internal stability thresholds (∝ 1/ε) outgrowing the cluster, exactly Theorem 3.2's t ≳ 1/ε requirement"

	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		panic(err)
	}
	inst, err := workload.PlantedBall{N: n, ClusterSize: clusterSize, Radius: radius}.Generate(rng, grid)
	if err != nil {
		panic(err)
	}
	// n is below core.ExactIndexMaxN, where the pipeline's IndexAuto
	// builds exactly this index: one build serves the reference radius and
	// every trial.
	ix, err := geometry.NewDistanceIndexFrame(frameOf(inst.Points))
	if err != nil {
		panic(err)
	}
	_, r2, err := ix.TwoApprox(t)
	if err != nil {
		panic(err)
	}

	for _, eps := range epsilons {
		prm := core.Params{T: t, Privacy: dp.Params{Epsilon: eps, Delta: 0.05}, Beta: 0.1, Grid: grid}
		success := 0
		var dl, wl, rawl []float64
		for i := 0; i < trials; i++ {
			res, err := core.OneCluster(rng, ix, prm)
			if err != nil {
				continue
			}
			success++
			count := res.Ball.Count(inst.Points)
			dl = append(dl, math.Max(0, float64(t-count)))
			wl = append(wl, res.Ball.Radius/r2)
			rawl = append(rawl, res.RawRadius/r2)
		}
		row := func(xs []float64) string {
			if len(xs) == 0 {
				return "-"
			}
			return bench.F(bench.Mean(xs))
		}
		tb.AddRow(eps, float64(success)/float64(trials), row(dl), row(wl), row(rawl))
	}
	return []*bench.Table{tb}
}
