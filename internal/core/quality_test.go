package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

// TestRadiusQualityQuasiConcave is the structural invariant GoodRadius's
// correctness rests on (Lemma 4.6): the searched score
// Q(r) = ½·min{t − L(r/2), L(r) − t + 4Γ} must be quasi-concave over the
// radius grid for any dataset, because L is monotone. Verified on random
// planted datasets via the step-function's own checker.
func TestRadiusQualityQuasiConcave(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		d := 1 + rng.Intn(3)
		grid, err := geometry.NewGrid(int64(64+rng.Intn(2048)), d)
		if err != nil {
			t.Fatal(err)
		}
		n := 40 + rng.Intn(80)
		inst, err := workload.PlantedBall{
			N:           n,
			ClusterSize: rng.Intn(n),
			Radius:      0.01 + 0.2*rng.Float64(),
		}.Generate(rng, grid)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
		if err != nil {
			t.Fatal(err)
		}
		tt := 2 + rng.Intn(n-2)
		ls, err := ix.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		gamma := float64(tt) / 6
		q, err := buildRadiusQuality(ls, grid, tt, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if !q.IsQuasiConcave() {
			t.Fatalf("trial %d: Q(r) not quasi-concave (n=%d t=%d d=%d)", trial, n, tt, d)
		}
	}
}

// TestRadiusQualityValuesMatchDefinition spot-checks the materialized step
// function against the direct formula at random grid radii.
func TestRadiusQualityValuesMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	grid, err := geometry.NewGrid(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.PlantedBall{N: 80, ClusterSize: 50, Radius: 0.05}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
	if err != nil {
		t.Fatal(err)
	}
	const tt = 40
	ls, err := ix.BuildLStep(context.Background(), tt)
	if err != nil {
		t.Fatal(err)
	}
	gamma := 10.0
	q, err := buildRadiusQuality(ls, grid, tt, gamma)
	if err != nil {
		t.Fatal(err)
	}
	u := grid.RadiusUnit()
	for trial := 0; trial < 500; trial++ {
		k := int64(rng.Intn(int(q.N())))
		r := float64(k) * u
		want := 0.5 * math.Min(float64(tt)-ls.Eval(r/2), ls.Eval(r)-float64(tt)+4*gamma)
		if got := q.Eval(k); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Q(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestRadiusQualityPromiseHolds verifies the Lemma 4.6 existence argument:
// when L(0) < t − 2Γ, some grid radius has Q(r) ≥ Γ.
func TestRadiusQualityPromiseHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		inst, err := workload.PlantedBall{N: 200, ClusterSize: 140, Radius: 0.03}.Generate(rng, grid)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
		if err != nil {
			t.Fatal(err)
		}
		const tt = 120
		gamma := float64(tt) / 6
		ls, err := ix.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Eval(0) >= float64(tt)-2*gamma {
			continue // zero-cluster branch; promise argument does not apply
		}
		q, err := buildRadiusQuality(ls, grid, tt, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if q.Max() < gamma {
			t.Fatalf("trial %d: max Q = %v < Γ = %v", trial, q.Max(), gamma)
		}
	}
}

// TestPipelineBudgetAccounting walks the pipeline's internal budget plan
// through a dp.Accountant and asserts it never exceeds the advertised
// (ε, δ): GoodRadius gets (ε/2 split between the Laplace test and
// RecConcave) and GoodCenter four quarters (Lemma 4.11's split).
func TestPipelineBudgetAccounting(t *testing.T) {
	total := dp.Params{Epsilon: 2, Delta: 0.05}
	acct, err := dp.NewAccountant(total)
	if err != nil {
		t.Fatal(err)
	}
	half := total.Scale(0.5)
	// GoodRadius: Laplace step (ε/2 of its half, pure) + RecConcave
	// ((ε/2, δ) of its half).
	if err := acct.Spend(dp.Params{Epsilon: half.Epsilon / 2}); err != nil {
		t.Fatal(err)
	}
	if err := acct.Spend(dp.Params{Epsilon: half.Epsilon / 2, Delta: half.Delta}); err != nil {
		t.Fatal(err)
	}
	// GoodCenter: AboveThreshold (ε/4, 0) + box choice (ε/4, δ/4) + axis
	// selections (ε/4, δ/4 total) + NoisyAVG (ε/4, δ/4).
	quarter := dp.Params{Epsilon: half.Epsilon / 4, Delta: half.Delta / 4}
	if err := acct.Spend(dp.Params{Epsilon: quarter.Epsilon}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := acct.Spend(quarter); err != nil {
			t.Fatal(err)
		}
	}
	rem := acct.Remaining()
	if rem.Epsilon < 0 || rem.Delta < 0 {
		t.Fatalf("pipeline over budget: remaining %+v", rem)
	}
}

// TestPaperProfileGammaRequiresHugeT: with the paper's uncapped Γ,
// Theorem 3.2's hypothesis t ≥ Ω(Γ) fails at laptop scale, and GoodRadius
// must degrade gracefully: every input either halts at the radius-zero
// branch or reports a promise failure, never panics.
func TestPaperProfileGammaRequiresHugeT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.PlantedBall{N: 200, ClusterSize: 140, Radius: 0.03}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
	if err != nil {
		t.Fatal(err)
	}
	prm := Params{
		T:       120,
		Privacy: dp.Params{Epsilon: 2, Delta: 0.05},
		Beta:    0.1,
		Grid:    grid,
		Profile: PaperProfile(),
	}
	res, err := GoodRadius(rng, ix, prm)
	// With Γ ≈ 10^7 ≫ t the zero test t − 2Γ − … is deeply negative, so
	// Step 2 fires (any noisy L(0) ≥ 1 clears it) — the graceful paper-
	// profile outcome at toy scale.
	if err != nil {
		t.Fatalf("paper profile errored instead of degrading: %v", err)
	}
	if !res.ZeroCluster {
		t.Errorf("expected the radius-zero branch under paper Γ, got %+v", res)
	}
}

// TestGoodRadiusMonotoneInT: with everything else fixed, a larger target t
// cannot shrink the returned radius much below the smaller target's (the
// optimal radius is monotone in t). Sanity rather than theorem.
func TestGoodRadiusMonotoneInT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.PlantedBall{N: 600, ClusterSize: 450, Radius: 0.02}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
	if err != nil {
		t.Fatal(err)
	}
	radiusAt := func(tt int) float64 {
		prm := Params{T: tt, Privacy: dp.Params{Epsilon: 4, Delta: 0.05}, Beta: 0.1, Grid: grid}
		res, err := GoodRadius(rng, ix, prm)
		if err != nil {
			t.Fatalf("t=%d: %v", tt, err)
		}
		return res.Radius
	}
	small := radiusAt(200)
	big := radiusAt(560) // must reach into the background
	if big < small/4 {
		t.Errorf("radius shrank with larger t: r(200)=%v, r(560)=%v", small, big)
	}
}

// TestOneClusterAllDuplicatesEndToEnd covers the full pipeline on the
// degenerate radius-zero dataset.
func TestOneClusterAllDuplicatesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	grid, err := geometry.NewGrid(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]vec.Vector, 600)
	dup := grid.Quantize(vec.Of(0.3, 0.7))
	for i := range pts {
		pts[i] = dup
	}
	prm := Params{T: 500, Privacy: dp.Params{Epsilon: 4, Delta: 0.05}, Beta: 0.1, Grid: grid}
	res, err := OneCluster(rng, indexOf(t, pts, prm), prm)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ZeroCluster {
		t.Error("zero cluster not detected")
	}
	if !res.Ball.Contains(dup) {
		t.Errorf("released ball (c=%v r=%v) misses the duplicated point %v",
			res.Ball.Center, res.Ball.Radius, dup)
	}
}
