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
		ID:       "tmin",
		Artifact: "Theorem 3.2 — the minimal workable cluster size t grows with √d/ε",
		Run:      runTMin,
	})
}

// runTMin measures the "needed cluster size" column of Table 1: on an
// instance whose planted cluster is essentially the whole dataset (so the
// only obstacle is the algorithm's own thresholds), scan a ladder of
// targets t and report the smallest one at which the pipeline succeeds in
// a majority of trials. Theorem 3.2 prices that threshold at
// Ω(√d/ε · polylog): it must grow when ε shrinks and when d grows.
func runTMin(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	type cfg struct {
		d   int
		eps float64
	}
	cfgs := []cfg{{2, 4}, {2, 2}, {2, 1}, {8, 2}, {32, 2}}
	trials := 4
	if quick {
		cfgs = []cfg{{2, 2}, {8, 2}}
		trials = 2
	}
	ladder := []int{60, 90, 135, 200, 300, 450, 675}

	tb := bench.NewTable("minimal workable t (n=900, 85% planted cluster, δ=0.05)",
		"d", "ε", "t_min measured", "√d/ε (shape)")
	tb.Note = "t_min = smallest ladder value where the pipeline succeeds in > half of " +
		bench.F(float64(trials)) + " trials; ladder " + bench.F(60) + "…" + bench.F(675) + " (×1.5 steps)"

	const n = 900
	for _, c := range cfgs {
		grid, err := geometry.NewGrid(1024, c.d)
		if err != nil {
			panic(err)
		}
		inst, err := workload.PlantedBall{N: n, ClusterSize: 765, Radius: 0.04}.Generate(rng, grid)
		if err != nil {
			panic(err)
		}
		ix, err := geometry.NewDistanceIndexFrame(frameOf(inst.Points))
		if err != nil {
			panic(err)
		}
		tMin := "-"
		for _, tt := range ladder {
			prm := core.Params{T: tt, Privacy: dp.Params{Epsilon: c.eps, Delta: 0.05}, Beta: 0.1, Grid: grid}
			success := 0
			for i := 0; i < trials; i++ {
				rad, err := core.GoodRadius(rng, ix, prm)
				if err != nil || rad.ZeroCluster {
					continue
				}
				cen, err := core.GoodCenterFrame(rng, ix.Frame(), rad.Radius, prm)
				if err != nil {
					continue
				}
				ball := geometry.Ball{Center: cen.Center, Radius: cen.Radius}
				if ball.Count(inst.Points) >= tt/2 {
					success++
				}
			}
			if success*2 > trials {
				tMin = bench.F(float64(tt))
				break
			}
		}
		tb.AddRow(c.d, c.eps, tMin, math.Sqrt(float64(c.d))/c.eps)
	}
	return []*bench.Table{tb}
}
