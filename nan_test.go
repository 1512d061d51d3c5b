package privcluster

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// within runs fn and returns its value, failing the test on an error or if
// fn has not returned after d: a NaN distance used to stall the exact
// index's pairwise sweep, which checks no context, so a query deadline
// cannot catch it.
func within[T any](t *testing.T, d time.Duration, fn func() (T, error)) T {
	t.Helper()
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := fn()
		ch <- result{v, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.v
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
	panic("unreachable")
}

// TestNaNCoordinateSnapsToMin pins the grid snap's NaN rule: a NaN
// coordinate clamps to the domain minimum like any other out-of-domain
// value, so a handle holding one releases bit-identically to the same data
// with that coordinate at Min — on the exact index (whose pairwise sweep a
// NaN distance stalled), through Append on a mutable handle (whose cell
// levels bucketed it at ⌊NaN⌋), and for InteriorPoint, whose middle slice
// runs on the unquantized 1-D values.
func TestNaNCoordinateSnapsToMin(t *testing.T) {
	const lo, hi = -1.0, 3.0
	ctx := context.Background()
	q := QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 17}
	// withRow returns a copy of pts whose row i has coordinate j set to x.
	withRow := func(pts []Point, i, j int, x float64) []Point {
		out := make([]Point, len(pts))
		copy(out, pts)
		out[i] = append(Point(nil), pts[i]...)
		out[i][j] = x
		return out
	}
	sameCluster := func(t *testing.T, got, want Cluster) {
		t.Helper()
		if math.Float64bits(got.Radius) != math.Float64bits(want.Radius) ||
			math.Float64bits(got.RawRadius) != math.Float64bits(want.RawRadius) ||
			len(got.Center) != len(want.Center) {
			t.Fatalf("release %+v, want %+v", got, want)
		}
		for j := range got.Center {
			if math.Float64bits(got.Center[j]) != math.Float64bits(want.Center[j]) {
				t.Fatalf("center %v, want %v", got.Center, want.Center)
			}
		}
	}

	t.Run("exact", func(t *testing.T) {
		pts, _ := plantedPoints(rand.New(rand.NewSource(21)), 600, 400, 2, 0.02)
		find := func(rows []Point) (Cluster, error) {
			ds, err := Open(rows, DatasetOptions{Min: lo, Max: hi, GridSize: 1024, IndexPolicy: IndexExact})
			if err != nil {
				return Cluster{}, err
			}
			defer ds.Close()
			return ds.FindCluster(ctx, 400, q)
		}
		want := within(t, time.Minute, func() (Cluster, error) { return find(withRow(pts, 450, 1, lo)) })
		got := within(t, time.Minute, func() (Cluster, error) { return find(withRow(pts, 450, 1, math.NaN())) })
		sameCluster(t, got, want)
	})

	t.Run("append", func(t *testing.T) {
		pts, _ := plantedPoints(rand.New(rand.NewSource(22)), 600, 400, 2, 0.02)
		// find also reports the snapshot's stored coordinates.
		find := func(rows []Point, stored *[]float64) (Cluster, error) {
			ds, err := Open(rows[:500], DatasetOptions{Min: lo, Max: hi, GridSize: 1024, Mutable: true})
			if err != nil {
				return Cluster{}, err
			}
			defer ds.Close()
			if _, _, err := ds.Append(ctx, rows[500:]); err != nil {
				return Cluster{}, err
			}
			ent, err := ds.pinEpoch(0)
			if err != nil {
				return Cluster{}, err
			}
			*stored = slices.Clone(ent.ix.Frame().Data())
			return ds.FindCluster(ctx, 400, q)
		}
		var wantRows, gotRows []float64
		want := within(t, time.Minute, func() (Cluster, error) { return find(withRow(pts, 550, 0, lo), &wantRows) })
		got := within(t, time.Minute, func() (Cluster, error) { return find(withRow(pts, 550, 0, math.NaN()), &gotRows) })
		sameCluster(t, got, want)
		if !slices.EqualFunc(gotRows, wantRows, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatal("the appended NaN row is not stored as the Min row")
		}
	})

	t.Run("interior", func(t *testing.T) {
		pts, _ := plantedPoints(rand.New(rand.NewSource(23)), 600, 400, 1, 0.02)
		interior := func(rows []Point) (float64, error) {
			ds, err := Open(rows, DatasetOptions{Min: lo, Max: hi, GridSize: 1024})
			if err != nil {
				return 0, err
			}
			defer ds.Close()
			// innerN = n−1 keeps the lowest value, where a NaN sorts, in
			// the middle slice the 1-cluster stage runs on.
			return ds.InteriorPoint(ctx, len(rows)-1, QueryOptions{Epsilon: 8, Delta: 0.05, Seed: 19})
		}
		want := within(t, time.Minute, func() (float64, error) { return interior(withRow(pts, 7, 0, lo)) })
		got := within(t, time.Minute, func() (float64, error) { return interior(withRow(pts, 7, 0, math.NaN())) })
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("interior point %v, want %v", got, want)
		}
	})
}

// TestAggregateNaNBlockReturns runs sample-and-aggregate with an analysis
// whose output is NaN on every block that samples a NaN row. Rejecting
// such a block would be a data-dependent event with no noise, so the
// aggregation maps the NaN onto the grid like any out-of-domain output and
// must return a finite point.
func TestAggregateNaNBlockReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := make([]float64, 9000)
	for i := range rows {
		rows[i] = 0.4 + rng.NormFloat64()*0.02
		if i%90 == 0 {
			rows[i] = math.NaN()
		}
	}
	nanBlocks := 0
	mean := func(rs []float64) Point {
		var s float64
		for _, r := range rs {
			s += r
		}
		m := s / float64(len(rs))
		if math.IsNaN(m) {
			nanBlocks++
		}
		return Point{m, m}
	}
	z := within(t, time.Minute, func() (Point, error) {
		return Aggregate(rows, mean, 2, 5, 1, Options{Epsilon: 8, Delta: 0.05, Seed: 13, GridSize: 4096})
	})
	if math.IsNaN(z[0]) || math.IsNaN(z[1]) {
		t.Fatalf("aggregate %v is NaN", z)
	}
	if nanBlocks == 0 {
		t.Fatal("no block sampled a NaN row; the test exercises nothing")
	}
}
