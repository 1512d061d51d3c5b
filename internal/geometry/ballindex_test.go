package geometry_test

// Bounds tests between the two local BallIndex backends: the exact Θ(n²)
// DistanceIndex is the ground truth, and the scalable CellIndex's L̂ step
// function must stay within its documented sandwich/ladder bounds, both on
// small random sets and on the clustered workloads the pipeline actually
// serves.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

// testOpts pins the CellIndex knobs so the documented error bounds are
// computable in the assertions below.
func testOpts(grid geometry.Grid) geometry.CellIndexOptions {
	return geometry.CellIndexOptions{
		MinRadius:       grid.RadiusUnit(),
		MaxRadius:       grid.MaxDistance(),
		LevelsPerOctave: 2,
		CellsPerRadius:  4,
	}
}

// bounds of testOpts: ladder ratio ρ and the center-rule slack h(r).
const testRho = 1.4142135623730951 // 2^(1/2)

func testH(r float64, d int) float64 {
	return math.Sqrt(float64(d)) / (2 * 4) * testRho * r
}

func clusteredInstance(t *testing.T, rng *rand.Rand, n, d int) ([]vec.Vector, geometry.Grid) {
	t.Helper()
	grid, err := geometry.NewGrid(1024, d)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.PlantedBall{N: n, ClusterSize: 3 * n / 5, Radius: 0.05}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Points, grid
}

func bothIndexes(t *testing.T, pts []vec.Vector, grid geometry.Grid) (*geometry.DistanceIndex, *geometry.CellIndex) {
	t.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := geometry.NewDistanceIndexFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := geometry.NewCellIndexFrame(f, testOpts(grid))
	if err != nil {
		t.Fatal(err)
	}
	return exact, cell
}

func TestCellIndexValidation(t *testing.T) {
	if _, err := geometry.NewCellIndexFrame(nil, geometry.CellIndexOptions{}); err == nil {
		t.Error("nil frame accepted")
	}
	grid, _ := geometry.NewGrid(1024, 2)
	_, ix := bothIndexes(t, []vec.Vector{vec.Of(0.5, 0.5)}, grid)
	for _, bad := range []int{0, 2} {
		if _, err := ix.BuildLStep(context.Background(), bad); err == nil {
			t.Errorf("BuildLStep t = %d accepted", bad)
		}
	}
}

// lEval evaluates the exact L(r, S), failing the test on error.
func lEval(t *testing.T, ix *geometry.DistanceIndex, r float64, tt int) float64 {
	t.Helper()
	v, err := ix.LValue(r, tt)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// lStepInput is one point set on which the cell index's BuildLStep is
// checked, at the fixed thresholds ts plus draws uniformly drawn ones.
type lStepInput struct {
	seed  int64
	n, d  int
	ts    []int
	draws int
}

// BuildLStep on the cell index: starts at the exact L(0), stays monotone,
// saturates at t, and respects the documented sandwich at its breakpoint
// radii. Input: a d=2 planted set at fixed t.
func TestCellIndexBuildLStepBounds(t *testing.T) {
	checkCellLStep(t, []lStepInput{{seed: 14, n: 400, d: 2, ts: []int{2, 40, 240, 400}}})
}

// The L estimate read off BuildLStep(t).Eval is sandwiched between the exact
// L at r−h and r+h, and below the resolution floor equals the exact value.
// Inputs: random-t draws on d ∈ {1, 2, 3}.
func TestCellIndexLValueSandwich(t *testing.T) {
	checkCellLStep(t, []lStepInput{
		{seed: 13, n: 250, d: 1, draws: 4},
		{seed: 13, n: 250, d: 2, draws: 4},
		{seed: 13, n: 250, d: 3, draws: 4},
	})
}

// checkCellLStep checks BuildLStep on the cell index against the exact
// index: L(0) exact, monotone, saturating at t, and the documented sandwich
// — at its breakpoint radii L(r−h) ≤ L̂(r) ≤ L(r+h), and at an arbitrary
// radius r, which the step holds at the last ladder radius r_j ∈ (r/ρ, r],
// L(r/ρ − h(r/ρ)) ≤ L̂(r) ≤ L(r + h(r)). Below the resolution floor the
// value is the exact radius-0 one (grid-quantized inputs have no distances
// in (0, 2·RadiusUnit)).
func checkCellLStep(t *testing.T, inputs []lStepInput) {
	t.Helper()
	for _, in := range inputs {
		rng := rand.New(rand.NewSource(in.seed + int64(in.d)))
		pts, grid := clusteredInstance(t, rng, in.n, in.d)
		exact, cell := bothIndexes(t, pts, grid)
		ts := append([]int(nil), in.ts...)
		for k := 0; k < in.draws; k++ {
			ts = append(ts, 2+rng.Intn(in.n-1))
		}
		for _, tt := range ts {
			tag := fmt.Sprintf("d=%d n=%d t=%d", in.d, in.n, tt)
			ls, err := cell.BuildLStep(context.Background(), tt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ls.Eval(0), lEval(t, exact, 0, tt); got != want {
				t.Fatalf("%s: L(0) = %v, want exact %v", tag, got, want)
			}
			if got, want := ls.Eval(grid.RadiusUnit()/2), lEval(t, exact, grid.RadiusUnit()/2, tt); got != want {
				t.Fatalf("%s: sub-resolution L = %v, want exact %v", tag, got, want)
			}
			for i := 1; i < len(ls.Vals); i++ {
				if ls.Vals[i] < ls.Vals[i-1] {
					t.Fatalf("%s: L not monotone at break %d", tag, i)
				}
			}
			if last := ls.Vals[len(ls.Vals)-1]; last != float64(tt) {
				t.Fatalf("%s: L(∞) = %v, want saturation at t", tag, last)
			}
			for i, r := range ls.Breaks {
				if r == 0 {
					continue
				}
				h := testH(r, in.d)
				// Monotone clipping can only raise a value toward earlier
				// (smaller-radius) estimates, which are themselves bounded by
				// their own sandwiches below this one's upper end.
				lo, hi := lEval(t, exact, r-h, tt), lEval(t, exact, r+h, tt)
				if ls.Vals[i] < lo-1e-9 || ls.Vals[i] > hi+1e-9 {
					t.Fatalf("%s: L̂(%v) = %v outside sandwich [%v, %v]", tag, r, ls.Vals[i], lo, hi)
				}
			}
			for k := 0; k < 25; k++ {
				r := math.Pow(10, -3+3.5*rng.Float64()) // log-uniform in [1e-3, ~3]
				rj := r / testRho
				lo := lEval(t, exact, rj-testH(rj, in.d), tt)
				hi := lEval(t, exact, r+testH(r, in.d), tt)
				if got := ls.Eval(r); got < lo-1e-9 || got > hi+1e-9 {
					t.Fatalf("%s: L̂(%v) = %v outside sandwich [%v, %v]", tag, r, got, lo, hi)
				}
			}
		}
	}
}

// Duplicate-heavy input: the radius-0 duplicate table must answer L(0)
// exactly and saturate the step at once.
func TestCellIndexDuplicates(t *testing.T) {
	grid, _ := geometry.NewGrid(1024, 2)
	pts := make([]vec.Vector, 30)
	for i := range pts {
		pts[i] = vec.Of(0.5, 0.5)
	}
	pts[29] = vec.Of(0.9, 0.9)
	_, ix := bothIndexes(t, pts, grid)
	ls, err := ix.BuildLStep(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Eval(0); got != 20 {
		t.Errorf("L(0) = %v, want 20 (capped)", got)
	}
	if len(ls.Breaks) != 1 {
		t.Errorf("expected a single saturated piece, got %d", len(ls.Breaks))
	}
	// t = n: the 29 duplicates hold 29 each, the outlier 1 → L(0) = 29·29+1 over 30.
	ls, err = ix.BuildLStep(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ls.Eval(0), (29.0*29+1)/30; got != want {
		t.Errorf("L(0) at t=n = %v, want %v", got, want)
	}
}
