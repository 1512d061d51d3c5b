package geometry

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privcluster/internal/vec"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(1, 2); err == nil {
		t.Error("|X|=1 accepted")
	}
	if _, err := NewGrid(4, 0); err == nil {
		t.Error("dim=0 accepted")
	}
	g, err := NewGrid(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Step() != 0.25 {
		t.Errorf("Step = %v, want 0.25", g.Step())
	}
}

func TestQuantizeSnapsAndClamps(t *testing.T) {
	g, _ := NewGrid(5, 2) // step 0.25
	got := g.Quantize(vec.Of(0.3, -2))
	if !got.Equal(vec.Of(0.25, 0)) {
		t.Errorf("Quantize = %v", got)
	}
	got = g.Quantize(vec.Of(0.38, 7))
	if !got.Equal(vec.Of(0.5, 1)) {
		t.Errorf("Quantize = %v", got)
	}
	if !g.OnGrid(got) {
		t.Error("quantized point not on grid")
	}
	if g.OnGrid(vec.Of(0.3, 0.3)) {
		t.Error("off-grid point reported on grid")
	}
	if g.OnGrid(vec.Of(0.25)) {
		t.Error("wrong-dim point reported on grid")
	}
}

// TestQuantizeNaNClampsToZero: NaN is out of the domain like ±Inf and
// clamps to 0, so the snapped point is on the grid and no NaN reaches a
// distance or a count.
func TestQuantizeNaNClampsToZero(t *testing.T) {
	g, _ := NewGrid(5, 4)
	got := g.Quantize(vec.Of(math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1)))
	for j, want := range []float64{0, 0, 1, 0} {
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Errorf("coord %d = %v, want %v", j, got[j], want)
		}
	}
	if !g.OnGrid(got) {
		t.Errorf("%v not on the grid", got)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	g, _ := NewGrid(17, 3)
	f := func(a, b, c float64) bool {
		clampIn := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0.5
			}
			return math.Remainder(x, 2)
		}
		v := vec.Of(clampIn(a), clampIn(b), clampIn(c))
		q := g.Quantize(v)
		return g.Quantize(q).Equal(q) && g.OnGrid(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRadiusGridRoundTrip(t *testing.T) {
	g, _ := NewGrid(33, 4)
	m := g.RadiusGridSize()
	if m < 2 {
		t.Fatalf("RadiusGridSize = %d", m)
	}
	// Largest index covers the domain diameter.
	if g.RadiusFromIndex(m-1) < g.MaxDistance() {
		t.Errorf("max grid radius %v < diameter %v", g.RadiusFromIndex(m-1), g.MaxDistance())
	}
}

func TestCountInBallAndBall(t *testing.T) {
	pts := []vec.Vector{vec.Of(0, 0), vec.Of(1, 0), vec.Of(3, 0)}
	if got := CountInBall(pts, vec.Of(0, 0), 1); got != 2 {
		t.Errorf("CountInBall = %d, want 2", got)
	}
	b := Ball{Center: vec.Of(0, 0), Radius: 1}
	if !b.Contains(vec.Of(1, 0)) || b.Contains(vec.Of(1.01, 0)) {
		t.Error("Ball.Contains boundary wrong")
	}
	if b.Count(pts) != 2 {
		t.Errorf("Count = %d", b.Count(pts))
	}
}

func clusterWithNoise(rng *rand.Rand, n, d int, clusterFrac float64, radius float64) []vec.Vector {
	pts := make([]vec.Vector, 0, n)
	nc := int(float64(n) * clusterFrac)
	center := make(vec.Vector, d)
	for j := range center {
		center[j] = 0.5
	}
	for i := 0; i < nc; i++ {
		p := center.Clone()
		for j := range p {
			p[j] += (rng.Float64()*2 - 1) * radius / math.Sqrt(float64(d))
		}
		pts = append(pts, p)
	}
	for i := nc; i < n; i++ {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	return pts
}

func TestDistanceIndexBasics(t *testing.T) {
	if _, err := NewDistanceIndexFrame(nil); err == nil {
		t.Error("nil frame accepted")
	}
	if _, err := NewDistanceIndexFrame(vec.NewFrame(0, 2)); err == nil {
		t.Error("empty index accepted")
	}
	pts := []vec.Vector{vec.Of(0), vec.Of(1), vec.Of(2), vec.Of(10)}
	ix, err := NewDistanceIndexFrame(frameOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	if ix.N() != 4 {
		t.Errorf("N = %d", ix.N())
	}
	if got := ix.CountWithin(0, 1); got != 2 {
		t.Errorf("CountWithin(0,1) = %d, want 2", got)
	}
	if got := ix.CountWithin(1, 1); got != 3 {
		t.Errorf("CountWithin(1,1) = %d, want 3", got)
	}
	if got, err := ix.RadiusForCount(0, 3); err != nil || got != 2 {
		t.Errorf("RadiusForCount(0,3) = %v, %v, want 2", got, err)
	}
	if got := ix.MaxCountWithin(1); got != 3 {
		t.Errorf("MaxCountWithin(1) = %d, want 3", got)
	}
}

func TestRadiusForCountOutOfRange(t *testing.T) {
	// Out-of-range t must surface as an error, never a panic — library
	// users have no reason to expect a panic path in the geometry package.
	ix, _ := NewDistanceIndexFrame(frameOf(t, []vec.Vector{vec.Of(0)}))
	if _, err := ix.RadiusForCount(0, 2); err == nil {
		t.Fatal("RadiusForCount(0,2) accepted t > n")
	}
	if _, err := ix.RadiusForCount(0, 0); err == nil {
		t.Fatal("RadiusForCount(0,0) accepted t < 1")
	}
}

func TestTwoApproxQuality(t *testing.T) {
	// Planted cluster: the 2-approximation must find a ball within 2× of
	// the planted radius that covers t points.
	rng := rand.New(rand.NewSource(1))
	pts := clusterWithNoise(rng, 300, 3, 0.3, 0.05)
	ix, err := NewDistanceIndexFrame(frameOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	tParam := 90
	c, r, err := ix.TwoApprox(tParam)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.CountWithin(c, r); got < tParam {
		t.Errorf("2-approx ball holds %d < %d points", got, tParam)
	}
	// r_opt ≤ planted radius 0.05 (roughly; cluster diameter ≤ 0.1), so the
	// 2-approx must return r ≤ 2·0.1.
	if r > 0.2 {
		t.Errorf("2-approx radius %v too large", r)
	}
	if _, _, err := ix.TwoApprox(0); err == nil {
		t.Error("t=0 accepted")
	}
	if _, _, err := ix.TwoApprox(10000); err == nil {
		t.Error("t>n accepted")
	}
}

func TestLValueAgainstDefinition(t *testing.T) {
	// Hand-checkable instance on a line: points 0, 1, 2, 10 with t = 2.
	pts := []vec.Vector{vec.Of(0), vec.Of(1), vec.Of(2), vec.Of(10)}
	ix, _ := NewDistanceIndexFrame(frameOf(t, pts))
	// r = 1: counts are 2,3,2,1 capped at 2 → 2,2,2,1; top-2 avg = 2.
	got, err := ix.LValue(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("LValue(1,2) = %v, want 2", got)
	}
	// r = 0.5: counts 1,1,1,1 → avg of top-2 = 1.
	got, _ = ix.LValue(0.5, 2)
	if got != 1 {
		t.Errorf("LValue(0.5,2) = %v, want 1", got)
	}
	// Negative r: 0 by convention.
	got, _ = ix.LValue(-1, 2)
	if got != 0 {
		t.Errorf("LValue(-1,2) = %v, want 0", got)
	}
	if _, err := ix.LValue(1, 0); err == nil {
		t.Error("t=0 accepted")
	}
}

func TestBuildLStepMatchesLValue(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(40)
		d := 1 + rng.Intn(3)
		pts := clusterWithNoise(rng, n, d, 0.4, 0.05)
		ix, err := NewDistanceIndexFrame(frameOf(t, pts))
		if err != nil {
			t.Fatal(err)
		}
		tt := 2 + rng.Intn(n/2)
		ls, err := ix.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		// Check at breakpoints, between them, and beyond the last.
		var radii []float64
		for _, b := range ls.Breaks {
			radii = append(radii, b, b+1e-7)
		}
		radii = append(radii, 0, 0.01, 0.5, 3, 100)
		for _, r := range radii {
			want, err := ix.LValue(r, tt)
			if err != nil {
				t.Fatal(err)
			}
			if got := ls.Eval(r); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: LStep.Eval(%v) = %v, want %v (t=%d n=%d)", trial, r, got, want, tt, n)
			}
		}
	}
}

func TestBuildLStepDuplicatePoints(t *testing.T) {
	// All points identical: L(0) should already be t (a radius-0 cluster),
	// exercising GoodRadius Step 2's code path.
	pts := make([]vec.Vector, 20)
	for i := range pts {
		pts[i] = vec.Of(0.5, 0.5)
	}
	ix, _ := NewDistanceIndexFrame(frameOf(t, pts))
	ls, err := ix.BuildLStep(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Eval(0); got != 10 {
		t.Errorf("L(0) = %v, want 10 (capped)", got)
	}
	if len(ls.Breaks) != 1 {
		t.Errorf("expected a single piece, got %d", len(ls.Breaks))
	}
}

func TestBuildLStepMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := clusterWithNoise(rng, 80, 2, 0.5, 0.02)
	ix, _ := NewDistanceIndexFrame(frameOf(t, pts))
	ls, err := ix.BuildLStep(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ls.Vals); i++ {
		if ls.Vals[i] < ls.Vals[i-1] {
			t.Fatalf("L not monotone at break %d: %v < %v", i, ls.Vals[i], ls.Vals[i-1])
		}
	}
	// L saturates at t for large r.
	if last := ls.Vals[len(ls.Vals)-1]; last != 20 {
		t.Errorf("L(∞) = %v, want t=20", last)
	}
}

// sensitivityBackends are the BallIndex implementations whose L the
// sensitivity property is checked on: the exact index, and the serving L̂
// of the cell index, a mutable index's epoch view, the sharded index over
// LocalShard backends (S ∈ {1, 3, 8}), and epoch views whose base×base
// blocks come from a warm pair memo (MutableCellIndex, and
// MutableShardedIndex over MutableLocalShard). Every scalable backend
// shares one pinned ladder (MinRadius 2⁻¹⁰, so dyadic coordinates sit
// exactly on cell boundaries). internal/transport checks the same property
// over loopback shard servers.
var sensitivityBackends = []struct {
	name  string
	build func(t *testing.T, f *vec.Frame) BallIndex
}{
	{"distance", func(t *testing.T, f *vec.Frame) BallIndex {
		ix, err := NewDistanceIndexFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}},
	{"cell", func(t *testing.T, f *vec.Frame) BallIndex {
		ix, err := NewCellIndexFrame(f, sensitivityCellOpts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}},
	{"mutable view", func(t *testing.T, f *vec.Frame) BallIndex {
		m, err := NewMutableCellIndexFrame(f, sensitivityCellOpts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		snap, err := m.Snapshot(context.Background(), m.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}},
	{"backends S=1", shardedSensitivity(1)},
	{"backends S=3", shardedSensitivity(3)},
	{"backends S=8", shardedSensitivity(8)},
	{"epoch view, chained", warmChainSensitivity(false)},
	{"mutable backends, chained", warmChainSensitivity(true)},
}

var sensitivityCellOpts = CellIndexOptions{MinRadius: 1.0 / 1024, MaxRadius: math.Sqrt2}

func shardedSensitivity(s int) func(t *testing.T, f *vec.Frame) BallIndex {
	return func(t *testing.T, f *vec.Frame) BallIndex {
		opts := ShardedIndexOptions{Shards: s, Cell: sensitivityCellOpts}
		ix, err := NewShardedIndexBackends(context.Background(), f, opts, localDialer)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
}

// Property: the sensitivity of L(r, ·) is at most 2 (Lemma 4.5) — on the
// exact L and on the L̂ every scalable backend serves. Replace one row of a
// dataset by another point and compare the two BuildLStep functions at
// both step functions' breakpoints plus fixed radii. The datasets cover
// random clustered points, duplicate-heavy rows (the radius-0 table),
// points on a dyadic lattice, which lie exactly on cell boundaries at the
// finer ladder levels (the center rule's edge cases), and a stacked cluster
// whose sources all share one boundary cell.
func TestLSensitivityAtMostTwo(t *testing.T) {
	dyadic := func(rng *rand.Rand) vec.Vector {
		return vec.Of(float64(rng.Intn(65))/64, float64(rng.Intn(65))/64)
	}
	cases := []struct {
		name   string
		trials int
		// data returns a dataset, its neighbour (one row replaced) and t.
		data func(rng *rand.Rand) (pts, nb []vec.Vector, tt int)
	}{
		{"random", 12, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			n := 25 + rng.Intn(30)
			pts := clusterWithNoise(rng, n, 2, 0.5, 0.1)
			nb := append([]vec.Vector(nil), pts...)
			nb[rng.Intn(n)] = vec.Of(rng.Float64(), rng.Float64())
			return pts, nb, 2 + rng.Intn(n-2)
		}},
		{"duplicates", 12, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			n := 25 + rng.Intn(30)
			pts := clusterWithNoise(rng, n, 2, 0.3, 0.1)
			dup := pts[0]
			for i := 0; i < n/2; i++ {
				pts[rng.Intn(n)] = dup
			}
			nb := append([]vec.Vector(nil), pts...)
			if rng.Intn(2) == 0 {
				nb[rng.Intn(n)] = dup // one more copy
			} else {
				nb[0] = vec.Of(rng.Float64(), rng.Float64()) // one copy fewer
			}
			return pts, nb, 2 + rng.Intn(n-2)
		}},
		{"cell boundaries", 12, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			n := 25 + rng.Intn(30)
			pts := make([]vec.Vector, n)
			c := dyadic(rng)
			for i := range pts {
				if i < n/2 { // a lattice cluster around c
					p := vec.Of(c[0]+float64(rng.Intn(5)-2)/64, c[1]+float64(rng.Intn(5)-2)/64)
					for a := range p {
						p[a] = math.Min(1, math.Max(0, p[a]))
					}
					pts[i] = p
				} else {
					pts[i] = dyadic(rng)
				}
			}
			nb := append([]vec.Vector(nil), pts...)
			nb[rng.Intn(n)] = dyadic(rng)
			return pts, nb, 2 + rng.Intn(n-2)
		}},
		{"dense boundary", 48, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			// m rows stacked on a dyadic point c, 1–5 rows (drawn per
			// point) on each other lattice point within 2/64 of it, and one
			// far row that the neighbour moves onto a lattice point whose
			// cell touches c. At the ladder levels whose cells are 1/64
			// wide or finer, a lattice point is its cell's lower corner, so
			// that cell is a boundary cell for all m stacked sources at
			// once; and with t ∈ [1.25m, 1.5m] those sources dominate the
			// top-t average with room below the cap t — so a rule that let
			// a cell's occupancy decide its contribution would move L̂ by
			// about km/t > 2 for a cell of k ≥ 2 rows. The moved row lifts
			// its cell's occupancy by one from anywhere in 1–5, so a
			// threshold of 2 to 6 rows shows.
			c := vec.Of(float64(16+rng.Intn(33))/64, float64(16+rng.Intn(33))/64)
			m := 20 + rng.Intn(20)
			var pts []vec.Vector
			for i := 0; i < m; i++ {
				pts = append(pts, c)
			}
			for dx := -2; dx <= 2; dx++ {
				for dy := -2; dy <= 2; dy++ {
					if dx != 0 || dy != 0 {
						p := vec.Of(c[0]+float64(dx)/64, c[1]+float64(dy)/64)
						for k := 1 + rng.Intn(5); k > 0; k-- {
							pts = append(pts, p)
						}
					}
				}
			}
			pts = append(pts, vec.Of(1, 1))
			nb := append([]vec.Vector(nil), pts...)
			corner := [][2]float64{{-1, 0}, {0, -1}, {-1, -1}}[rng.Intn(3)]
			nb[len(nb)-1] = vec.Of(c[0]+corner[0]/64, c[1]+corner[1]/64)
			return pts, nb, m + m/4 + rng.Intn(m/4+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			for trial := 0; trial < tc.trials; trial++ {
				pts, nb, tt := tc.data(rng)
				f1, f2 := frameOf(t, pts), frameOf(t, nb)
				for _, be := range sensitivityBackends {
					l1, err := be.build(t, f1).BuildLStep(context.Background(), tt)
					if err != nil {
						t.Fatal(err)
					}
					l2, err := be.build(t, f2).BuildLStep(context.Background(), tt)
					if err != nil {
						t.Fatal(err)
					}
					radii := append([]float64{0, 0.01, 0.05, 0.2, 1, 2}, l1.Breaks...)
					radii = append(radii, l2.Breaks...)
					for _, r := range radii {
						if d := math.Abs(l1.Eval(r) - l2.Eval(r)); d > 2+1e-9 {
							t.Fatalf("%s trial %d: sensitivity %v > 2 at r=%v (n=%d t=%d)", be.name, trial, d, r, len(pts), tt)
						}
					}
				}
			}
		})
	}
}
