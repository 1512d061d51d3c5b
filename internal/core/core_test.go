package core

import (
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

func testGrid(t *testing.T, size int64, dim int) geometry.Grid {
	t.Helper()
	g, err := geometry.NewGrid(size, dim)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testParams(t *testing.T, grid geometry.Grid, tt int) Params {
	t.Helper()
	return Params{
		T:       tt,
		Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
		Beta:    0.1,
		Grid:    grid,
	}
}

func plantedInstance(t *testing.T, rng *rand.Rand, grid geometry.Grid, n, cluster int, radius float64) workload.Instance {
	t.Helper()
	inst, err := workload.PlantedBall{N: n, ClusterSize: cluster, Radius: radius}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestParamsValidate(t *testing.T) {
	grid := testGrid(t, 1024, 2)
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"t zero", func(p *Params) { p.T = 0 }},
		{"t > n", func(p *Params) { p.T = 10000 }},
		{"bad epsilon", func(p *Params) { p.Privacy.Epsilon = 0 }},
		{"zero delta", func(p *Params) { p.Privacy.Delta = 0 }},
		{"bad beta", func(p *Params) { p.Beta = 2 }},
		{"bad grid", func(p *Params) { p.Grid = geometry.Grid{} }},
	}
	for _, c := range cases {
		p := testParams(t, grid, 100)
		p.setDefaults()
		c.mut(&p)
		if err := p.Validate(500); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestGammaCappedAndPaper(t *testing.T) {
	grid := testGrid(t, 1024, 2)
	p := testParams(t, grid, 400)
	p.setDefaults()
	if g := p.Gamma(); math.Abs(g-400.0/6) > 1e-9 {
		t.Errorf("capped Gamma = %v, want 400/6", g)
	}
	p.Profile = PaperProfile()
	if g := p.Gamma(); g < 1e4 {
		t.Errorf("paper Gamma = %v, expected to be enormous", g)
	}
	if p.DeltaLoss() <= 4*p.Gamma() {
		t.Error("DeltaLoss should exceed 4Γ")
	}
}

func TestGoodRadiusFindsPlantedScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grid := testGrid(t, 1024, 2)
	inst := plantedInstance(t, rng, grid, 800, 500, 0.02)
	ix, err := geometry.NewDistanceIndexFrame(frameOf(t, inst.Points))
	if err != nil {
		t.Fatal(err)
	}
	prm := testParams(t, grid, 400)

	// Non-private reference: r_opt ≤ 2·approx radius.
	_, twoApprox, err := ix.TwoApprox(prm.T)
	if err != nil {
		t.Fatal(err)
	}

	good := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		res, err := GoodRadius(rng, ix, prm)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.ZeroCluster {
			t.Fatalf("trial %d: spurious zero cluster", i)
		}
		// Lemma 3.6: (1) a ball of radius res.Radius holds ≥ t − 4Γ − slack
		// points; (2) res.Radius ≤ 4·r_opt (grid rounding adds one unit).
		count := ix.MaxCountWithin(res.Radius)
		if count < prm.T-int(4*res.Gamma)-50 {
			t.Errorf("trial %d: best ball at r=%v holds %d points, want ≥ %d",
				i, res.Radius, count, prm.T-int(4*res.Gamma)-50)
			continue
		}
		if res.Radius > 4*twoApprox+2*grid.RadiusUnit() {
			t.Errorf("trial %d: radius %v > 4·%v", i, res.Radius, twoApprox)
			continue
		}
		good++
	}
	if good < trials-1 {
		t.Errorf("GoodRadius met Lemma 3.6 in only %d/%d trials", good, trials)
	}
}

func TestGoodRadiusZeroCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	grid := testGrid(t, 1024, 2)
	// 400 duplicated points: Step 2 must fire.
	pts := make([]vec.Vector, 500)
	for i := range pts {
		if i < 400 {
			pts[i] = grid.Quantize(vec.Of(0.5, 0.5))
		} else {
			pts[i] = grid.Quantize(vec.Of(rng.Float64(), rng.Float64()))
		}
	}
	ix, _ := geometry.NewDistanceIndexFrame(frameOf(t, pts))
	prm := testParams(t, grid, 300)
	zero := 0
	for i := 0; i < 10; i++ {
		res, err := GoodRadius(rng, ix, prm)
		if err != nil {
			t.Fatal(err)
		}
		if res.ZeroCluster && res.Radius == 0 {
			zero++
		}
	}
	if zero < 9 {
		t.Errorf("zero-cluster detected in only %d/10 trials", zero)
	}
}

func TestGoodRadiusValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid := testGrid(t, 1024, 2)
	pts := []vec.Vector{grid.Quantize(vec.Of(0.1, 0.1)), grid.Quantize(vec.Of(0.9, 0.9))}
	ix, _ := geometry.NewDistanceIndexFrame(frameOf(t, pts))
	prm := testParams(t, grid, 5) // t > n
	if _, err := GoodRadius(rng, ix, prm); err == nil {
		t.Error("t > n accepted")
	}
}

func TestGoodCenterLocatesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := testGrid(t, 1024, 2)
	inst := plantedInstance(t, rng, grid, 800, 500, 0.02)
	prm := testParams(t, grid, 400)

	good := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		res, err := GoodCenterFrame(rng, frameOf(t, inst.Points), 0.04, prm)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		ball := geometry.Ball{Center: res.Center, Radius: res.Radius}
		if got := ball.Count(inst.Points); got >= prm.T {
			good++
		} else {
			t.Logf("trial %d: ball (r=%v, reps=%d, box=%d) holds %d < %d",
				i, res.Radius, res.Repetitions, res.BoxCount, got, prm.T)
		}
	}
	if good < trials-2 {
		t.Errorf("GoodCenter ball captured t points in only %d/%d trials", good, trials)
	}
}

func TestGoodCenterZeroRadiusUpgraded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := testGrid(t, 1024, 2)
	pts := make([]vec.Vector, 500)
	for i := range pts {
		pts[i] = grid.Quantize(vec.Of(0.5, 0.5))
	}
	prm := testParams(t, grid, 400)
	res, err := GoodCenterFrame(rng, frameOf(t, pts), 0, prm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Center.Dist(vec.Of(0.5, 0.5)) > res.Radius {
		t.Errorf("center %v too far from the duplicated point", res.Center)
	}
}

func TestGoodCenterNoClusterErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	grid := testGrid(t, 1024, 2)
	// Pure uniform noise, t close to n, tiny radius: no box can hold t.
	inst := plantedInstance(t, rng, grid, 300, 0, 0)
	prm := testParams(t, grid, 295)
	prm.Profile = DefaultProfile()
	prm.Profile.MaxRepetitions = 40
	prm.Profile.BoxSideFactor = 0.5 // tiny boxes
	_, err := GoodCenterFrame(rng, frameOf(t, inst.Points), 0.001, prm)
	if err == nil {
		t.Error("expected an error on clusterless data")
	}
}

func TestOneClusterEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := testGrid(t, 1024, 2)
	inst := plantedInstance(t, rng, grid, 800, 500, 0.02)
	prm := testParams(t, grid, 400)

	ix := indexOf(t, inst.Points, prm)
	good := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		res, err := OneCluster(rng, ix, prm)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		count := res.Ball.Count(inst.Points)
		if count < prm.T {
			t.Logf("trial %d: ball holds %d < t=%d (raw r=%v, R=%v)",
				i, count, prm.T, res.RawRadius, res.Ball.Radius)
			continue
		}
		if res.Ball.Radius > 1.5 {
			t.Logf("trial %d: radius %v unreasonably large", i, res.Ball.Radius)
			continue
		}
		good++
	}
	if good < trials-2 {
		t.Errorf("OneCluster succeeded in only %d/%d trials", good, trials)
	}
}

func TestOneClusterHighDimensionalJL(t *testing.T) {
	// d = 48 with n = 400 exercises the non-identity JL path (k < d).
	rng := rand.New(rand.NewSource(8))
	grid := testGrid(t, 1024, 48)
	inst := plantedInstance(t, rng, grid, 400, 300, 0.05)
	prm := testParams(t, grid, 250)
	prm.Privacy = dp.Params{Epsilon: 16, Delta: 0.05}
	prm.Profile = DefaultProfile()
	prm.Profile.JLDimCap = 12

	ix := indexOf(t, inst.Points, prm)
	var res ClusterResult
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		res, err = OneCluster(rng, ix, prm)
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.K >= 48 {
		t.Errorf("JL not engaged: k = %d", res.K)
	}
	if got := res.Ball.Count(inst.Points); got < prm.T/2 {
		t.Errorf("high-dim ball holds %d points, want ≥ %d", got, prm.T/2)
	}
}

func TestKCoverThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	grid := testGrid(t, 1024, 2)
	mi, err := workload.MultiCluster{N: 900, K: 3, Radius: 0.02, Spread: 0.3}.Generate(rng, grid)
	if err != nil {
		t.Fatal(err)
	}
	prm := testParams(t, grid, 200)
	prm.Privacy = dp.Params{Epsilon: 18, Delta: 0.06}

	balls, err := KCover(rng, indexOf(t, mi.Points, prm), 3, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(balls) == 0 {
		t.Fatal("no balls found")
	}
	covered := 0
	for _, p := range mi.Points {
		for _, b := range balls {
			if b.Contains(p) {
				covered++
				break
			}
		}
	}
	if frac := float64(covered) / 900; frac < 0.5 {
		t.Errorf("k-cover covered only %.2f of the data with %d balls", frac, len(balls))
	}
}

func TestKCoverValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	grid := testGrid(t, 1024, 2)
	prm := testParams(t, grid, 10)
	if _, err := KCover(rng, indexOf(t, []vec.Vector{vec.Of(0.5, 0.5)}, prm), 0, prm); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIntPointReturnsInteriorPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := testGrid(t, 1<<16, 1)
	vals, err := workload.SortedValues(rng, 2400, 400, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	minV, maxV := vals[0], vals[0]
	for _, v := range vals {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}

	prm := IntPointParams{
		InnerN: 1600,
		Cluster: Params{
			T:       800,
			Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
			Beta:    0.1,
			Grid:    grid,
		},
		Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
		Beta:    0.1,
	}
	good := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		res, err := IntPoint(rng, vals, prm)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.Point >= minV && res.Point <= maxV {
			good++
		} else {
			t.Logf("trial %d: %v outside [%v, %v]", i, res.Point, minV, maxV)
		}
	}
	if good < trials-1 {
		t.Errorf("interior point found in only %d/%d trials", good, trials)
	}
}

func TestIntPointValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grid1 := testGrid(t, 1024, 1)
	grid2 := testGrid(t, 1024, 2)
	vals := []float64{0.1, 0.2, 0.3, 0.4}
	base := IntPointParams{
		InnerN:  2,
		Cluster: Params{T: 2, Privacy: dp.Params{Epsilon: 1, Delta: 0.01}, Beta: 0.1, Grid: grid1},
		Privacy: dp.Params{Epsilon: 1, Delta: 0.01},
	}
	bad := base
	bad.InnerN = 10
	if _, err := IntPoint(rng, vals, bad); err == nil {
		t.Error("InnerN ≥ m accepted")
	}
	bad = base
	bad.Cluster.Grid = grid2
	if _, err := IntPoint(rng, vals, bad); err == nil {
		t.Error("2-D grid accepted")
	}
	bad = base
	bad.Privacy = dp.Params{}
	if _, err := IntPoint(rng, vals, bad); err == nil {
		t.Error("invalid privacy accepted")
	}
}
