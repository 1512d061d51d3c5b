package experiments

import (
	"math"
	"math/rand"
	"time"

	"privcluster/internal/baselines"
	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "table1",
		Artifact: "Table 1 — four solutions to the 1-cluster problem",
		Run:      runTable1,
	})
}

// runTable1 measures, on a common planted-ball workload, every row of the
// paper's Table 1: needed cluster size, measured cluster-size loss Δ,
// measured radius factor w, and running time. The qualitative claims to
// reproduce: private aggregation requires a majority cluster and pays a
// radius factor that grows with √d (E9b isolates that); the exponential
// mechanism is near-exact but costs poly(|X|^d) time (it only runs on the
// coarsened grid); threshold query release (d = 1) is near-exact in radius
// with a polylog|X| loss; this paper's algorithm handles minority clusters
// on fine grids with a √log n radius factor.
func runTable1(seed int64, quick bool) []*bench.Table {
	rng := rand.New(rand.NewSource(seed))
	n := 1200
	trials := 3
	if quick {
		n, trials = 800, 1
	}
	clusterSize := 2 * n / 3
	radius := 0.02
	eps, delta, beta := 2.0, 0.05, 0.1
	tOurs := n / 2
	tMaj := int(0.54 * float64(n)) // majority requirement of row 1

	tb := bench.NewTable("Table 1 (measured): 1-cluster solutions on a planted ball, d=2, n="+bench.F(float64(n)),
		"method", "restriction", "t", "count", "Δ_meas", "w_meas", "time")
	tb.Note = "w_meas = released radius / non-private 2-approx radius (≤ 2·r_opt); Δ_meas = max(0, t − points in released ball), averaged over " + bench.F(float64(trials)) + " trials"

	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		panic(err)
	}
	inst, err := workload.PlantedBall{N: n, ClusterSize: clusterSize, Radius: radius}.Generate(rng, grid)
	if err != nil {
		panic(err)
	}
	ref, err := baselines.TwoApproxBall(inst.Points, tOurs)
	if err != nil {
		panic(err)
	}

	// Row: this work. Failed trials (the 1/ε utility cliff of E10) are
	// skipped rather than fatal; the row shows "-" if every trial failed.
	{
		var dl, wl []float64
		var elapsed time.Duration
		runs := 0
		prm := core.Params{T: tOurs, Privacy: dp.Params{Epsilon: eps, Delta: delta}, Beta: beta, Grid: grid}
		f := frameOf(inst.Points)
		for i := 0; i < trials; i++ {
			var res core.ClusterResult
			var err error
			// The index build is part of the method's running time.
			elapsed += bench.Time(func() {
				res, err = core.OneCluster(rng, indexOf(f, prm), prm)
			})
			if err != nil {
				continue
			}
			runs++
			count := res.Ball.Count(inst.Points)
			dl = append(dl, math.Max(0, float64(tOurs-count)))
			wl = append(wl, res.Ball.Radius/ref.Radius)
		}
		if runs == 0 {
			tb.AddRow("this work (GoodRadius+GoodCenter)", "t ≳ √d/ε·2^O(log*|X|)", tOurs,
				"-", "-", "-", elapsed/time.Duration(trials))
		} else {
			tb.AddRow("this work (GoodRadius+GoodCenter)", "t ≳ √d/ε·2^O(log*|X|)", tOurs,
				tOurs-int(bench.Mean(dl)), bench.Mean(dl), bench.Mean(wl), elapsed/time.Duration(runs))
		}
	}

	// Row: exponential mechanism (only feasible on a coarse grid: the
	// poly(|X|^d) cost is the row's documented drawback).
	{
		coarse, err := geometry.NewGrid(32, 2)
		if err != nil {
			panic(err)
		}
		coarsePts := inst.Points
		var dl, wl []float64
		var elapsed time.Duration
		prm := baselines.ExpMechParams{T: tOurs, Epsilon: eps, Beta: beta, Grid: coarse}
		for i := 0; i < trials; i++ {
			var ball geometry.Ball
			elapsed += bench.Time(func() {
				var err error
				ball, err = baselines.ExpMech1Cluster(rng, coarsePts, prm)
				if err != nil {
					panic(err)
				}
			})
			count := ball.Count(inst.Points)
			dl = append(dl, math.Max(0, float64(tOurs-count)))
			wl = append(wl, ball.Radius/ref.Radius)
		}
		tb.AddRow("exponential mechanism [14]", "time poly(|X|^d): run at |X|=32", tOurs,
			tOurs-int(bench.Mean(dl)), bench.Mean(dl), bench.Mean(wl), elapsed/time.Duration(trials))
	}

	// Row: private aggregation (NRS'07-style; needs a majority cluster).
	{
		var dl, wl []float64
		var elapsed time.Duration
		prm := baselines.PrivAggParams{T: tMaj, Epsilon: eps, Beta: beta, Grid: grid}
		for i := 0; i < trials; i++ {
			var ball geometry.Ball
			elapsed += bench.Time(func() {
				var err error
				ball, err = baselines.PrivateAggregation(rng, inst.Points, prm)
				if err != nil {
					panic(err)
				}
			})
			count := ball.Count(inst.Points)
			dl = append(dl, math.Max(0, float64(tMaj-count)))
			wl = append(wl, ball.Radius/ref.Radius)
		}
		tb.AddRow("private aggregation [16]", "t ≥ 0.51·n; w grows with √d (E9b)", tMaj,
			tMaj-int(bench.Mean(dl)), bench.Mean(dl), bench.Mean(wl), elapsed/time.Duration(trials))
	}

	// Row: threshold query release, d = 1 (its own 1-D instance).
	{
		vals1d := make([]float64, n)
		for i := range vals1d {
			if i < clusterSize {
				vals1d[i] = 0.45 + rng.Float64()*2*radius
			} else {
				vals1d[i] = rng.Float64()
			}
		}
		exact, err := baselines.NonprivateInterval1D(vals1d, tOurs)
		if err != nil {
			panic(err)
		}
		var dl, wl []float64
		var elapsed time.Duration
		runs := 0
		prm := baselines.TreeHistParams{T: tOurs, Epsilon: eps, Beta: beta, GridSize: 1 << 16}
		for i := 0; i < trials; i++ {
			var iv baselines.Interval1D
			var err error
			elapsed += bench.Time(func() {
				iv, err = baselines.TreeHistogram1D(rng, vals1d, prm)
			})
			if err != nil {
				continue
			}
			runs++
			count := iv.Count(vals1d)
			dl = append(dl, math.Max(0, float64(tOurs-count)))
			wl = append(wl, iv.Radius/exact.Radius)
		}
		if runs == 0 {
			tb.AddRow("threshold query release [3,4]", "d = 1 only; Δ polylog|X| (E5)", tOurs,
				"-", "-", "-", elapsed/time.Duration(trials))
		} else {
			tb.AddRow("threshold query release [3,4]", "d = 1 only; Δ polylog|X| (E5)", tOurs,
				tOurs-int(bench.Mean(dl)), bench.Mean(dl), bench.Mean(wl), elapsed/time.Duration(runs))
		}
	}

	// Companion: the exponential mechanism's poly(|X|^d) running time,
	// measured directly by sweeping |X| at d = 2. Extrapolation to the main
	// table's |X| = 1024 grid gives the infeasibility Table 1 records.
	em := bench.NewTable("Table 1 companion: exponential-mechanism runtime grows as |X|^d (d=2)",
		"|X|", "centers |X|^d", "time", "time per center")
	em.Note = "this work runs on |X| = 2^16 grids in the same milliseconds — the poly(n, d, log|X|) column of Table 1"
	sizes := []int64{16, 32, 64}
	if !quick {
		sizes = append(sizes, 128)
	}
	for _, size := range sizes {
		g, err := geometry.NewGrid(size, 2)
		if err != nil {
			panic(err)
		}
		prm := baselines.ExpMechParams{T: tOurs, Epsilon: eps, Beta: beta, Grid: g}
		elapsed := bench.Time(func() {
			if _, err := baselines.ExpMech1Cluster(rng, inst.Points, prm); err != nil {
				panic(err)
			}
		})
		centers := size * size
		em.AddRow(size, centers, elapsed, time.Duration(int64(elapsed)/centers))
	}
	return []*bench.Table{tb, em}
}
