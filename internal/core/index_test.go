package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

func TestNewBallIndexPolicy(t *testing.T) {
	grid := testGrid(t, 1024, 2)
	small := []vec.Vector{vec.Of(0.1, 0.1), vec.Of(0.9, 0.9)}

	ix, err := NewBallIndexFrame(frameOf(t, small), grid, IndexAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*geometry.DistanceIndex); !ok {
		t.Errorf("auto policy on n=2 picked %T, want the exact index", ix)
	}
	ix, err = NewBallIndexFrame(frameOf(t, small), grid, IndexScalable, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*geometry.CellIndex); !ok {
		t.Errorf("forced scalable policy picked %T", ix)
	}

	rng := rand.New(rand.NewSource(1))
	big := make([]vec.Vector, ExactIndexMaxN+1)
	for i := range big {
		big[i] = grid.Quantize(vec.Of(rng.Float64(), rng.Float64()))
	}
	ix, err = NewBallIndexFrame(frameOf(t, big), grid, IndexAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*geometry.CellIndex); !ok {
		t.Errorf("auto policy above the cutover picked %T, want the cell index", ix)
	}
	ix, err = NewBallIndexFrame(frameOf(t, big), grid, IndexExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*geometry.DistanceIndex); !ok {
		t.Errorf("forced exact policy picked %T", ix)
	}

	if _, err := NewBallIndexFrame(frameOf(t, small), grid, IndexPolicy(99), 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

// GoodRadius on the scalable backend, at a size where the exact index is no
// longer auto-selected: the Lemma 3.6 guarantees hold with the cell index's
// documented extra slack (ladder ratio √2 and center-rule inflation on top
// of the exact 4·r_opt bound).
func TestGoodRadiusScalableQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := testGrid(t, 1<<16, 2)
	inst := plantedInstance(t, rng, grid, 6000, 4000, 0.02)
	ix, err := NewBallIndexFrame(frameOf(t, inst.Points), grid, IndexScalable, 0)
	if err != nil {
		t.Fatal(err)
	}
	cell, ok := ix.(*geometry.CellIndex)
	if !ok {
		t.Fatalf("scalable policy returned %T", ix)
	}
	prm := testParams(t, grid, 3000)

	twoApprox := bruteTwoApprox(cell.Frame(), prm.T)
	good := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		res, err := GoodRadius(rng, cell, prm)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.ZeroCluster {
			t.Fatalf("trial %d: spurious zero cluster", i)
		}
		count := bruteMaxCountWithin(cell.Frame(), res.Radius)
		if count < prm.T-int(4*res.Gamma)-100 {
			t.Errorf("trial %d: best ball at r=%v holds %d points, want ≥ %d",
				i, res.Radius, count, prm.T-int(4*res.Gamma)-100)
			continue
		}
		// Exact bound 4·r_opt ≤ 4·twoApprox, widened by the ladder ratio
		// and the center-rule slack (each ≤ √2 here), plus grid rounding.
		if res.Radius > 8*twoApprox+2*grid.RadiusUnit() {
			t.Errorf("trial %d: radius %v > 8·%v", i, res.Radius, twoApprox)
			continue
		}
		good++
	}
	if good < trials-1 {
		t.Errorf("scalable GoodRadius met the widened Lemma 3.6 in only %d/%d trials", good, trials)
	}
}

// The full pipeline end to end on the scalable backend.
func TestOneClusterScalableEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	grid := testGrid(t, 1<<16, 2)
	inst := plantedInstance(t, rng, grid, 6000, 4000, 0.02)
	prm := testParams(t, grid, 3000)
	prm.Index = IndexScalable
	res, err := OneCluster(rng, indexOf(t, inst.Points, prm), prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroCluster {
		t.Fatal("spurious zero cluster")
	}
	if got := res.Ball.Count(inst.Points); got < prm.T/2 {
		t.Errorf("released ball holds %d points, want ≥ %d", got, prm.T/2)
	}
	if !res.Ball.Contains(inst.TrueCenter) {
		t.Errorf("released ball (c=%v r=%v) misses the planted center %v",
			res.Ball.Center, res.Ball.Radius, inst.TrueCenter)
	}
}

// bruteMaxCountWithin returns max_i B_r(x_i) by direct scans over the
// frame — the exact, non-private reference the Lemma 3.6 checks need.
func bruteMaxCountWithin(f *vec.Frame, r float64) int {
	best := 0
	for i := 0; i < f.N(); i++ {
		if c := f.CountWithin(f.Row(i), r); c > best {
			best = c
		}
	}
	return best
}

// bruteTwoApprox returns the radius of "known fact 3": the smallest t-th
// distance from any input point, so r_opt ≤ radius ≤ 2·r_opt. A point is
// only sorted when it could beat the best radius so far.
func bruteTwoApprox(f *vec.Frame, t int) float64 {
	ds := make([]float64, f.N())
	bestSq := math.Inf(1)
	for i := 0; i < f.N(); i++ {
		f.DistSqInto(f.Row(i), ds)
		within := 0
		for _, d := range ds {
			if d < bestSq {
				within++
			}
		}
		if within < t {
			continue
		}
		slices.Sort(ds)
		bestSq = ds[t-1]
	}
	return math.Sqrt(bestSq)
}
