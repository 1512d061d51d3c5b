package experiments

import (
	"math/rand"

	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "kcover",
		Artifact: "Observation 3.5 — iterated 1-cluster as a k-clustering heuristic",
		Run:      runKCover,
	})
}

// runKCover plants k well-separated blobs and iterates the 1-cluster
// algorithm k times (budget split per round), reporting how much of the
// data the returned balls cover — the paper's proposed k-clustering
// heuristic.
func runKCover(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	ks := []int{2, 3, 4}
	if quick {
		ks = []int{2}
	}
	tb := bench.NewTable("k-ball covering of k planted blobs (d=2, per-round ε=6)",
		"k", "n", "balls found", "coverage", "blobs hit")
	tb.Note = "coverage = fraction of all points inside some returned ball; a blob is hit when some ball contains its planted center"

	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		panic(err)
	}
	for _, k := range ks {
		n := 350 * k
		mi, err := workload.MultiCluster{N: n, K: k, Radius: 0.02, Spread: 0.3, NoiseFr: 0.05}.Generate(rng, grid)
		if err != nil {
			panic(err)
		}
		prm := core.Params{
			T:       200,
			Privacy: dp.Params{Epsilon: 6 * float64(k), Delta: 0.02 * float64(k)},
			Beta:    0.1,
			Grid:    grid,
		}
		balls, err := core.KCover(rng, indexOf(frameOf(mi.Points), prm), k, prm)
		if err != nil {
			panic(err)
		}
		hit := 0
		for _, c := range mi.Centers {
			for _, b := range balls {
				if b.Contains(c) {
					hit++
					break
				}
			}
		}
		tb.AddRow(k, n, len(balls), bench.Coverage(mi.Points, balls), hit)
	}
	return []*bench.Table{tb}
}
