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
	if !got.ApproxEqual(vec.Of(0.25, 0), 1e-12) {
		t.Errorf("Quantize = %v", got)
	}
	got = g.Quantize(vec.Of(0.38, 7))
	if !got.ApproxEqual(vec.Of(0.5, 1), 1e-12) {
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
		return g.Quantize(q).ApproxEqual(q, 1e-12) && g.OnGrid(q)
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
	// IndexFromRadius never under-covers.
	for _, r := range []float64{0, 1e-9, 0.1, 0.5, 1.7, g.MaxDistance()} {
		k := g.IndexFromRadius(r)
		if g.RadiusFromIndex(k) < r-1e-12 {
			t.Errorf("IndexFromRadius(%v) = %d under-covers (%v)", r, k, g.RadiusFromIndex(k))
		}
	}
	if g.IndexFromRadius(-1) != 0 {
		t.Error("negative radius index != 0")
	}
	if g.IndexFromRadius(1e18) != m-1 {
		t.Error("huge radius not clamped")
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
	in, out := b.Filter(pts)
	if len(in) != 2 || len(out) != 1 {
		t.Errorf("Filter = %d/%d", len(in), len(out))
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
	if _, err := NewDistanceIndex(nil); err == nil {
		t.Error("empty index accepted")
	}
	if _, err := NewDistanceIndex([]vec.Vector{vec.Of(1), vec.Of(1, 2)}); err == nil {
		t.Error("ragged dims accepted")
	}
	pts := []vec.Vector{vec.Of(0), vec.Of(1), vec.Of(2), vec.Of(10)}
	ix, err := NewDistanceIndex(pts)
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
	ix, _ := NewDistanceIndex([]vec.Vector{vec.Of(0)})
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
	ix, err := NewDistanceIndex(pts)
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
	ix, _ := NewDistanceIndex(pts)
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
		ix, err := NewDistanceIndex(pts)
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
	ix, _ := NewDistanceIndex(pts)
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
	ix, _ := NewDistanceIndex(pts)
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
// of the cell index, a mutable index's epoch view, the sharded index
// (local shards and LocalShard backends, S ∈ {1, 3}), and epoch views whose
// base×base blocks come from a warm pair memo (MutableCellIndex, and
// MutableShardedIndex over MutableLocalShard). Every scalable backend shares one pinned ladder
// (MinRadius 2⁻¹⁰, so dyadic coordinates sit exactly on cell boundaries).
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
	{"sharded S=1", shardedSensitivity(1, false)},
	{"sharded S=3", shardedSensitivity(3, false)},
	{"backends S=1", shardedSensitivity(1, true)},
	{"backends S=3", shardedSensitivity(3, true)},
	{"epoch view, warm memo", warmMemoSensitivity(false)},
	{"mutable backends, warm memo", warmMemoSensitivity(true)},
}

var sensitivityCellOpts = CellIndexOptions{MinRadius: 1.0 / 1024, MaxRadius: math.Sqrt2}

func shardedSensitivity(s int, backends bool) func(t *testing.T, f *vec.Frame) BallIndex {
	return func(t *testing.T, f *vec.Frame) BallIndex {
		opts := ShardedIndexOptions{Shards: s, Policy: ShardMorton, Cell: sensitivityCellOpts}
		var ix *ShardedIndex
		var err error
		if backends {
			ix, err = NewShardedIndexBackends(context.Background(), f, opts, localDialer)
		} else {
			ix, err = NewShardedIndexFrame(context.Background(), f, opts)
		}
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
		name string
		// data returns a dataset, its neighbour (one row replaced) and t.
		data func(rng *rand.Rand) (pts, nb []vec.Vector, tt int)
	}{
		{"random", func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			n := 25 + rng.Intn(30)
			pts := clusterWithNoise(rng, n, 2, 0.5, 0.1)
			nb := append([]vec.Vector(nil), pts...)
			nb[rng.Intn(n)] = vec.Of(rng.Float64(), rng.Float64())
			return pts, nb, 2 + rng.Intn(n-2)
		}},
		{"duplicates", func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
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
		{"cell boundaries", func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
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
		{"dense boundary", func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			// m rows stacked on a dyadic point c, two rows on each other
			// lattice point within 2/64 of it, and one far row that the
			// neighbour moves onto the lattice. At the ladder levels whose
			// cells are 1/64 wide or finer, the cell it lands in is a
			// boundary cell for all m stacked sources at once, and with
			// t ∈ (m, 1.5m] those sources dominate the top-t average — so a
			// rule that let a cell's occupancy decide its contribution would
			// move L̂ by about 3m/t > 2.
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
						pts = append(pts, p, p)
					}
				}
			}
			pts = append(pts, vec.Of(1, 1))
			nb := append([]vec.Vector(nil), pts...)
			nb[len(nb)-1] = vec.Of(c[0]+float64(rng.Intn(5)-2)/64, c[1]+float64(rng.Intn(5)-2)/64)
			return pts, nb, m + 1 + rng.Intn(m/2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			for trial := 0; trial < 12; trial++ {
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
