package experiments

import (
	"context"
	"math"
	"math/rand"

	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/noise"
	"privcluster/internal/recconcave"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "ablation",
		Artifact: "Design-choice ablations: capped score, JL projection, RecConcave vs SVT",
		Run:      runAblation,
	})
}

func runAblation(seed int64, quick bool) []*bench.Table {
	return []*bench.Table{
		ablationCappedScore(seed),
		ablationJL(seed, quick),
		ablationRecConcaveVsSVT(seed, quick),
	}
}

// ablationCappedScore reproduces the §3.1 sensitivity argument: on the
// adversarial instance (t/2 points at 0, t/2 at 1, one at ½), replacing the
// middle point moves the raw input-centered max-count by Θ(t) while the
// capped-average score L moves by at most 2 — the whole reason GoodRadius
// can search L privately.
func ablationCappedScore(seed int64) *bench.Table {
	tb := bench.NewTable("Ablation (a): sensitivity of the radius score on the §3.1 adversarial instance",
		"score", "value on S", "value on S′", "|difference|", "bound")
	tb.Note = "S′ replaces the single middle point; raw max-count has sensitivity Ω(t), the capped average L has sensitivity 2 (Lemma 4.5)"

	grid, err := geometry.NewGrid(1024, 1)
	if err != nil {
		panic(err)
	}
	const t = 500
	s, err := workload.AdversarialSensitivity(grid, t)
	if err != nil {
		panic(err)
	}
	// Neighbor: the middle point (0.5) moves to 1.
	sPrime := make([]vec.Vector, len(s))
	copy(sPrime, s)
	for i, p := range sPrime {
		if p[0] != 0 && p[0] != 1 {
			sPrime[i] = grid.Quantize(vec.Vector{1})
		}
	}
	// The critical radius: 0.5 (plus one grid step so quantization cannot
	// push the extremes out) — the ball around the middle point covers
	// everything in S, while nothing comparable exists in S′.
	r := 0.5 + grid.Step()
	ixS, err := geometry.NewDistanceIndexFrame(frameOf(s))
	if err != nil {
		panic(err)
	}
	ixSP, err := geometry.NewDistanceIndexFrame(frameOf(sPrime))
	if err != nil {
		panic(err)
	}
	rawS := float64(ixS.MaxCountWithin(r))
	rawSP := float64(ixSP.MaxCountWithin(r))
	tb.AddRow("raw max ball count", rawS, rawSP, math.Abs(rawS-rawSP), "Ω(t) = Ω("+bench.F(t)+")")

	lS, err := ixS.LValue(r, t)
	if err != nil {
		panic(err)
	}
	lSP, err := ixSP.LValue(r, t)
	if err != nil {
		panic(err)
	}
	tb.AddRow("capped average L(r,S)", lS, lSP, math.Abs(lS-lSP), "2")
	return tb
}

// ablationJL isolates the paper's "second attempt" lesson: locating the
// box in the full d-dimensional space costs a poly(d) radius factor, while
// locating it after a JL projection to k = O(log n) dimensions costs only
// √k. The released radius scales as √k in both, so the no-JL variant's
// radius grows with √d.
func ablationJL(seed int64, quick bool) *bench.Table {
	rng := rand.New(rand.NewSource(seed))
	trials := 3
	if quick {
		trials = 1
	}
	const (
		d = 32
		n = 500
	)
	tb := bench.NewTable("Ablation (b): GoodCenter with and without the JL projection (d=32)",
		"variant", "k", "released R", "effective R", "R ratio vs JL")
	tb.Note = "same planted instance and budget; the released radius scales with √k, so skipping JL (k = d) pays the √(d/log n) factor the paper's second attempt suffered"

	grid, err := geometry.NewGrid(1024, d)
	if err != nil {
		panic(err)
	}
	inst, err := workload.PlantedBall{N: n, ClusterSize: 350, Radius: 0.05}.Generate(rng, grid)
	if err != nil {
		panic(err)
	}
	frame, err := vec.FrameFromVectors(inst.Points)
	if err != nil {
		panic(err)
	}
	const t = 250
	run := func(jlCap int) (k int, released, effective float64, ok bool) {
		prm := core.Params{T: t, Privacy: dp.Params{Epsilon: 16, Delta: 0.05}, Beta: 0.1, Grid: grid}
		prm.Profile = core.DefaultProfile()
		prm.Profile.JLDimCap = jlCap
		var rel, eff []float64
		for i := 0; i < trials; i++ {
			res, err := core.GoodCenterFrame(rng, frame, 0.1, prm)
			if err != nil {
				continue
			}
			k = res.K
			rel = append(rel, res.Radius)
			eff = append(eff, bench.EffectiveRadius(inst.Points, res.Center, t))
		}
		if len(rel) == 0 {
			return 0, 0, 0, false
		}
		return k, bench.Mean(rel), bench.Mean(eff), true
	}
	kJL, relJL, effJL, okJL := run(8)
	if okJL {
		tb.AddRow("with JL (k capped at 8)", kJL, relJL, effJL, 1.0)
	} else {
		tb.AddRow("with JL (k capped at 8)", "-", "-", "-", "-")
	}
	kNo, relNo, effNo, okNo := run(d + 1) // cap above d ⇒ identity, k = d
	if okNo && okJL {
		tb.AddRow("without JL (k = d)", kNo, relNo, effNo, relNo/relJL)
	} else if okNo {
		tb.AddRow("without JL (k = d)", kNo, relNo, effNo, "-")
	} else {
		tb.AddRow("without JL (k = d)", "-", "-", "-", "-")
	}
	return tb
}

// ablationRecConcaveVsSVT compares GoodRadius's RecConcave search against
// the straightforward sparse-vector binary search the paper mentions in
// §3.1 (footnote 2): the SVT search pays Θ(log(|X|√d)) per comparison in
// the cluster-size loss, while RecConcave pays 2^O(log*). At practical |X|
// both find the radius; the bound columns show who wins asymptotically.
func ablationRecConcaveVsSVT(seed int64, quick bool) *bench.Table {
	rng := rand.New(rand.NewSource(seed))
	trials := 3
	if quick {
		trials = 1
	}
	tb := bench.NewTable("Ablation (c): radius search — RecConcave vs SVT binary search (d=1, n=1200, t=600, ε=2)",
		"method", "|X|", "returned r (mean)", "count at r", "loss bound shape")
	tb.Note = "count at r = points in the best ball of the returned radius; bounds: RecConcave 8^{log*|X|}·log*|X|, SVT log(|X|)·log(log|X|/β)"

	const (
		n           = 1200
		clusterSize = 800
		t           = 600
	)
	eps, delta, beta := 2.0, 0.05, 0.1
	for _, size := range []int64{1 << 16, 1 << 40} {
		grid, err := geometry.NewGrid(size, 1)
		if err != nil {
			panic(err)
		}
		vals := make([]float64, n)
		for i := range vals {
			if i < clusterSize {
				vals[i] = 0.45 + rng.Float64()*0.04
			} else {
				vals[i] = rng.Float64()
			}
		}
		points := quantizeAll(grid, vals)
		ix, err := geometry.NewDistanceIndexFrame(frameOf(points))
		if err != nil {
			panic(err)
		}

		// RecConcave (via GoodRadius).
		prm := core.Params{T: t, Privacy: dp.Params{Epsilon: eps, Delta: delta}, Beta: beta, Grid: grid}
		var rcR []float64
		rcCount := 0
		for i := 0; i < trials; i++ {
			res, err := core.GoodRadius(rng, ix, prm)
			if err != nil {
				continue
			}
			rcR = append(rcR, res.Radius)
			rcCount = ix.MaxCountWithin(res.Radius)
		}
		ls := recconcave.LogStar(2 * float64(size))
		rcBound := math.Pow(8, float64(ls)) * float64(ls)
		rcCell := "-"
		if len(rcR) > 0 {
			rcCell = bench.F(bench.Mean(rcR))
		}
		tb.AddRow("RecConcave (GoodRadius)", bench.F(float64(size)), rcCell, rcCount, bench.F(rcBound))

		// SVT noisy binary search over the radius grid: find the smallest
		// grid radius with L(r) ≥ t − slack. Each comparison gets ε/levels.
		ls2, err := ix.BuildLStep(context.Background(), t)
		if err != nil {
			panic(err)
		}
		m := grid.RadiusGridSize()
		levels := int(math.Ceil(math.Log2(float64(m)))) + 1
		epsCmp := eps / float64(levels)
		slack := (2.0 / epsCmp) * math.Log(2*float64(levels)/beta)
		var svtR []float64
		svtCount := 0
		for i := 0; i < trials; i++ {
			lo, hi := int64(0), m-1
			for lo < hi {
				mid := (lo + hi) / 2
				noisy := ls2.Eval(grid.RadiusFromIndex(mid)) + noise.Laplace(rng, 2/epsCmp)
				if noisy >= float64(t)-slack {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			r := grid.RadiusFromIndex(lo)
			svtR = append(svtR, r)
			svtCount = ix.MaxCountWithin(r)
		}
		svtBound := float64(levels) * math.Log(float64(levels)/beta)
		tb.AddRow("SVT binary search", bench.F(float64(size)), bench.Mean(svtR), svtCount, bench.F(svtBound))
	}
	return tb
}
