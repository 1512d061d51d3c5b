package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"privcluster/internal/dp"
	"privcluster/internal/recconcave"
	"privcluster/internal/vec"
)

// TestMinFeasibleTShape checks the floor formula's qualitative shape: it
// must grow when ε shrinks and when δ shrinks (both inflate the release
// thresholds), and the ROADMAP's reported flaky point — t ≈ 1000 at ε = 1
// with default δ = 10⁻⁶ — must land at or below the floor while the
// standard test regime (t = 400 at ε = 4, δ = 0.05) stays clearly above it.
func TestMinFeasibleTShape(t *testing.T) {
	grid16 := testGrid(t, 1<<16, 2)
	grid1k := testGrid(t, 1024, 2)
	floor := func(eps, delta float64, g int) float64 {
		grid := grid16
		if g == 1024 {
			grid = grid1k
		}
		p := Params{T: 1, Privacy: dp.Params{Epsilon: eps, Delta: delta}, Beta: 0.1, Grid: grid}
		p.setDefaults()
		return p.MinFeasibleT()
	}

	if f1, f2 := floor(1, 1e-6, 1<<16), floor(2, 1e-6, 1<<16); f1 <= f2 {
		t.Errorf("floor must grow as ε shrinks: ε=1 → %.0f, ε=2 → %.0f", f1, f2)
	}
	if fTight, fLoose := floor(1, 1e-6, 1<<16), floor(1, 0.05, 1<<16); fTight <= fLoose {
		t.Errorf("floor must grow as δ shrinks: δ=1e-6 → %.0f, δ=0.05 → %.0f", fTight, fLoose)
	}
	// The empirical flaky point from the ROADMAP: t ≈ 1000 at ε = 1.
	if f := floor(1, 1e-6, 1<<16); f < 500 || f > 4000 {
		t.Errorf("default-regime floor %.0f outside the empirically flaky band [500, 4000]", f)
	}
	// The long-standing passing regime must sit above its floor.
	if f := floor(4, 0.05, 1024); f >= 400 {
		t.Errorf("standard test regime floor %.0f would reject t=400", f)
	}
	// The uncapped paper profile is exempt: its infeasibility is
	// categorical and documented, not the flaky capped regime the floor
	// targets, so flooring it would foreclose the paper-constant path.
	paper := Params{T: 1, Privacy: dp.Params{Epsilon: 1, Delta: 1e-6}, Beta: 0.1, Grid: grid16, Profile: PaperProfile()}
	if f := paper.MinFeasibleT(); f != 0 {
		t.Errorf("paper-profile floor = %.0f, want 0 (no pre-flight)", f)
	}
}

// TestZeroClusterPlausible covers the pre-flight's duplicate escape hatch:
// a duplicate-dominated dataset must be recognized (its radius-zero path
// succeeds at any t), a spread-out one must not.
func TestZeroClusterPlausible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := testGrid(t, 1024, 2)
	prm := Params{T: 400, Privacy: dp.Params{Epsilon: 1, Delta: 1e-6}, Beta: 0.1, Grid: grid}
	prm.setDefaults()

	dups := make([]vec.Vector, 600)
	for i := range dups {
		if i < 500 {
			dups[i] = grid.Quantize(vec.Of(0.5, 0.5))
		} else {
			dups[i] = grid.Quantize(vec.Of(rng.Float64(), rng.Float64()))
		}
	}
	if !ZeroClusterPlausible(frameOf(t, dups), prm) {
		t.Error("500 duplicates at t=400 not recognized as a zero-cluster candidate")
	}

	inst := plantedInstance(t, rng, grid, 600, 400, 0.05)
	if ZeroClusterPlausible(frameOf(t, inst.Points), prm) {
		t.Error("spread-out planted data misread as a zero-cluster candidate")
	}
	if ZeroClusterPlausible(nil, prm) {
		t.Error("empty input misread as a zero-cluster candidate")
	}
}

// TestZeroRadiusLMatchesClassFormula pins L(0) read off the per-row
// duplicate table against the per-class formula (classes by bitwise
// equality, largest first, each of a class's m points scoring min(m, t)
// until t points are taken), on rows with classes of several sizes, −0 and
// +0 rows that must stay distinct, and t below, at and above n.
func TestZeroRadiusLMatchesClassFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	var rows []vec.Vector
	for c, size := range []int{9, 5, 5, 3, 1, 1} {
		for k := 0; k < size; k++ {
			rows = append(rows, vec.Of(float64(c)/8, 0.25))
		}
	}
	rows = append(rows, vec.Of(0, 0), vec.Of(negZero, 0), vec.Of(negZero, 0))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	f := frameOf(t, rows)

	mult := make(map[[2]uint64]int)
	for _, r := range rows {
		mult[[2]uint64{math.Float64bits(r[0]), math.Float64bits(r[1])}]++
	}
	var ms []int
	for _, m := range mult {
		ms = append(ms, m)
	}
	slices.SortFunc(ms, func(a, b int) int { return b - a })
	for _, tt := range []int{1, 2, 4, 7, 10, 20, len(rows), 40} {
		remaining, sum := tt, 0.0
		for _, m := range ms {
			if remaining <= 0 {
				break
			}
			take := min(m, remaining)
			sum += float64(take) * float64(min(m, tt))
			remaining -= take
		}
		if got, want := zeroRadiusL(f, tt), sum/float64(tt); got != want {
			t.Errorf("t=%d: zeroRadiusL = %v, per-class formula %v", tt, got, want)
		}
	}
}

// TestPromiseRegimeBoundary quantifies the t/Γ/ε regime boundary the
// ROADMAP flagged, table-driven: for each budget, a t well below
// MinFeasibleT must fail with a PromiseError carrying the enriched
// t−4Γ slack, and a t a factor ≈ 4 above the floor must succeed in the
// majority of seeded trials. Together the rows bracket the boundary and
// pin the floor as conservative (failures below, successes above).
func TestPromiseRegimeBoundary(t *testing.T) {
	cases := []struct {
		name       string
		eps, delta float64
	}{
		{"eps4-loose-delta", 4, 0.05},
		{"eps8-tight-delta", 8, 1e-6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			grid := testGrid(t, 1024, 2)
			prm := Params{
				Privacy: dp.Params{Epsilon: tc.eps, Delta: tc.delta},
				Beta:    0.1,
				Grid:    grid,
			}
			prm.setDefaults()
			floor := prm.MinFeasibleT()
			tHigh := int(4 * floor)
			n := tHigh*3/2 + 200
			inst := plantedInstance(t, rng, grid, n, tHigh*5/4, 0.02)

			// Below the floor: the radius search must fail with the typed,
			// enriched promise error — not succeed, not panic.
			low := prm
			low.T = int(floor / 4)
			if low.T < 1 {
				low.T = 1
			}
			ix, err := NewBallIndexFrame(frameOf(t, inst.Points), prm.Grid, prm.Index, prm.Profile.Workers)
			if err != nil {
				t.Fatal(err)
			}
			_, err = OneCluster(rng, ix, low)
			if !errors.Is(err, recconcave.ErrPromiseViolated) {
				t.Fatalf("t=%d (floor %.0f): err = %v, want a promise violation", low.T, floor, err)
			}
			var pe *recconcave.PromiseError
			if !errors.As(err, &pe) {
				t.Fatalf("promise failure is not a *PromiseError: %v", err)
			}
			half := low
			half.Privacy = low.Privacy.Scale(0.5)
			if pe.T != low.T || pe.Gamma != half.Gamma() || pe.Slack != float64(low.T)-4*half.Gamma() {
				t.Errorf("enrichment wrong: T=%d Γ=%v slack=%v (want T=%d Γ=%v)",
					pe.T, pe.Gamma, pe.Slack, low.T, half.Gamma())
			}
			if pe.Depth < 1 || pe.LevelEpsilon <= 0 || pe.LevelDelta <= 0 {
				t.Errorf("level diagnostics missing: %+v", pe)
			}

			// Well above the floor: the pipeline must succeed in a majority
			// of trials.
			high := prm
			high.T = tHigh
			success := 0
			const trials = 4
			for i := 0; i < trials; i++ {
				if _, err := OneCluster(rng, ix, high); err == nil {
					success++
				}
			}
			if success*2 <= trials {
				t.Errorf("t=%d (4× floor %.0f): only %d/%d trials succeeded", tHigh, floor, success, trials)
			}
		})
	}
}
