package privcluster

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func plantedPoints(rng *rand.Rand, n, clusterSize int, d int, radius float64) ([]Point, Point) {
	center := make(Point, d)
	for j := range center {
		center[j] = 0.3 + 0.4*rng.Float64()
	}
	pts := make([]Point, 0, n)
	for i := 0; i < clusterSize; i++ {
		p := make(Point, d)
		for j := range p {
			p[j] = center[j] + (rng.Float64()*2-1)*radius/math.Sqrt(float64(d))
		}
		pts = append(pts, p)
	}
	for i := clusterSize; i < n; i++ {
		p := make(Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	return pts, center
}

func TestFindClusterPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, center := plantedPoints(rng, 800, 500, 2, 0.02)
	c, err := FindCluster(pts, 400, Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Count(pts); got < 400 {
		t.Errorf("cluster ball holds %d < 400 points", got)
	}
	cv := make(Point, 2)
	copy(cv, center)
	if !c.Contains(cv) {
		t.Errorf("planted center %v outside found ball (c=%v r=%v)", center, c.Center, c.Radius)
	}
	if c.RawRadius <= 0 || c.Radius < c.RawRadius {
		t.Errorf("radius bookkeeping wrong: raw=%v out=%v", c.RawRadius, c.Radius)
	}
}

func TestFindClusterDefaultsApplied(t *testing.T) {
	// Zero options must not panic or loop: tiny ε with tiny data will
	// likely error, which is acceptable — just exercise the defaults path.
	rng := rand.New(rand.NewSource(2))
	pts, _ := plantedPoints(rng, 60, 40, 2, 0.01)
	_, err := FindCluster(pts, 30, Options{})
	_ = err // any outcome is fine; no panic is the assertion
}

func TestFindClusterErrors(t *testing.T) {
	if _, err := FindCluster(nil, 5, Options{}); err != ErrNoPoints {
		t.Errorf("empty input error = %v", err)
	}
	pts := []Point{{0.5, 0.5}, {0.5}}
	if _, err := FindCluster(pts, 1, Options{Seed: 1}); err == nil {
		t.Error("ragged dimensions accepted")
	}
	if _, err := FindCluster([]Point{{0.5, 0.5}}, 5, Options{Seed: 1}); err == nil {
		t.Error("t > n accepted")
	}
}

// TestFindClusterInfeasibleRegimeRejected covers the pre-flight feasibility
// check: the flaky t ≈ Γ regime (e.g. t = 100 at the default ε = 1,
// δ = 10⁻⁶) must be rejected up front with an actionable typed error
// instead of failing after the budget is spent, while the long-standing
// workable regime passes the check untouched.
func TestFindClusterInfeasibleRegimeRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := plantedPoints(rng, 600, 400, 2, 0.02)

	_, err := FindCluster(pts, 100, Options{Seed: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("defaults with t=100: err = %v, want ErrInfeasible", err)
	}
	for _, want := range []string{"raise t", "ε=1", "δ=1e-06"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// The same t at a generous budget is not pre-flight-rejected.
	if _, err := FindCluster(pts, 400, Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}); err != nil {
		t.Errorf("workable regime rejected: %v", err)
	}
}

// TestFindClusterDuplicatesBelowFloorStillSucceed: a duplicate-dominated
// dataset succeeds through the radius-zero path at any t, so the
// pre-flight must not reject it — with the default profile or the paper
// constants (which are exempt from the floor entirely).
func TestFindClusterDuplicatesBelowFloorStillSucceed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := make([]Point, 5000)
	for i := range pts {
		if i < 4500 {
			pts[i] = Point{0.5, 0.5}
		} else {
			pts[i] = Point{rng.Float64(), rng.Float64()}
		}
	}
	c, err := FindCluster(pts, 500, Options{Seed: 1}) // defaults: t=500 ≪ floor
	if err != nil {
		t.Fatalf("duplicate cluster rejected: %v", err)
	}
	if !c.ZeroRadius {
		t.Errorf("expected the radius-zero path, got raw radius %v", c.RawRadius)
	}

	// Paper constants are exempt from the floor: the pre-flight must let
	// them through (the run may still fail downstream in the center stage's
	// huge paper thresholds — that categorical behavior is documented).
	if _, err := FindCluster(pts, 500, Options{Seed: 1, Paper: true}); errors.Is(err, ErrInfeasible) {
		t.Errorf("paper profile pre-flight-rejected: %v", err)
	}
}

// TestFindClustersSplitBudgetPreflight: KCover runs each round at (ε/k,
// δ/k), so feasibility must be judged on the per-round share — a t that
// passes at the full budget but not at ε/k is rejected up front instead of
// silently burning all k rounds.
func TestFindClustersSplitBudgetPreflight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02)
	// t=2500 clears the full-budget floor (≈2000 at ε=1, δ=1e-6) but not
	// the per-round floor at ε=0.25.
	_, err := FindClusters(pts, 4, 2500, Options{Seed: 3})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("k=4 split-budget regime: err = %v, want ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "per-round") || !strings.Contains(err.Error(), "4 rounds") {
		t.Errorf("error %q does not explain the per-round budget", err)
	}
}

// The worker count must not change seeded results.
func TestFindClusterWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	base := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}
	ref, err := FindCluster(pts, 400, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024, Workers: 1},
		{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024, Workers: 3},
		{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024, Workers: 4},
	} {
		c, err := FindCluster(pts, 400, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if c.Radius != ref.Radius || c.Center[0] != ref.Center[0] || c.Center[1] != ref.Center[1] {
			t.Errorf("options %+v changed the seeded result", o)
		}
	}
}

func TestFindClusterDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := plantedPoints(rng, 600, 400, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 99, GridSize: 1024}
	a, errA := FindCluster(pts, 300, o)
	b, errB := FindCluster(pts, 300, o)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("divergent errors: %v vs %v", errA, errB)
	}
	if errA == nil {
		if a.Radius != b.Radius || a.Center[0] != b.Center[0] {
			t.Error("same seed produced different clusters")
		}
	}
}

func TestFindClustersCoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []Point
	centers := []Point{{0.2, 0.2}, {0.8, 0.8}}
	for _, c := range centers {
		sub, _ := plantedPoints(rng, 300, 300, 2, 0.02)
		for _, p := range sub {
			pts = append(pts, Point{c[0] + (p[0]-0.5)*0.1, c[1] + (p[1]-0.5)*0.1})
		}
	}
	clusters, err := FindClusters(pts, 2, 200, Options{Epsilon: 12, Delta: 0.06, Seed: 5, GridSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	covered := 0
	for _, p := range pts {
		for _, c := range clusters {
			if c.Contains(p) {
				covered++
				break
			}
		}
	}
	if covered < len(pts)/3 {
		t.Errorf("clusters cover only %d/%d points", covered, len(pts))
	}
}

func TestInteriorPointPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 2400)
	for i := range vals {
		switch {
		case i < 400:
			vals[i] = 0.1 * rng.Float64()
		case i >= 2000:
			vals[i] = 0.9 + 0.1*rng.Float64()
		default:
			vals[i] = 0.5 + (rng.Float64()*2-1)*0.01
		}
	}
	got, err := InteriorPoint(vals, 1600, Options{Epsilon: 4, Delta: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got < 0 || got > 1 {
		t.Errorf("interior point %v outside data range", got)
	}
	if _, err := InteriorPoint(nil, 1, Options{}); err != ErrNoPoints {
		t.Errorf("empty input error = %v", err)
	}
}

func TestAggregatePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := make([]float64, 40000)
	for i := range rows {
		rows[i] = 0.4 + rng.NormFloat64()*0.02
	}
	mean2D := func(rs []float64) Point {
		var s float64
		for _, r := range rs {
			s += r
		}
		m := s / float64(len(rs))
		return Point{m, m}
	}
	z, err := Aggregate(rows, mean2D, 2, 5, 0.8,
		Options{Epsilon: 4, Delta: 0.05, Seed: 13, GridSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z[0]-0.4) > 0.3 || math.Abs(z[1]-0.4) > 0.3 {
		t.Errorf("aggregate %v too far from the stable point (0.4, 0.4)", z)
	}
}
