package privcluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// goldenBits flattens released clusters into the bit patterns the golden
// tests pin: per cluster, the center's coordinates then the radius, each as
// math.Float64bits.
func goldenBits(cs []Cluster) [][]uint64 {
	out := make([][]uint64, len(cs))
	for i, c := range cs {
		for _, x := range c.Center {
			out[i] = append(out[i], math.Float64bits(x))
		}
		out[i] = append(out[i], math.Float64bits(c.Radius))
	}
	return out
}

// goldenLiteral prints bit patterns as the Go literal the test tables use,
// so a deliberate release change can be re-recorded from the failure.
func goldenLiteral(bits [][]uint64) string {
	s := "{"
	for _, c := range bits {
		s += "{"
		for j, b := range c {
			if j > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%#016x", b)
		}
		s += "}, "
	}
	return s + "}"
}

// TestGoldenReleases pins seeded releases of the public handle bit for bit.
// The backend-equivalence suites compare one path against another and so
// cannot see a change to the code every path shares (GoodCenter's
// partition, box choice, axis binning and average); these literals can.
// They cover d = 1, 2 and 5, a k = 3 cover, a mutable handle after an
// append, and the parallel count pass (Workers = 1 and 3 at n ≥ 2048 must
// release the same bits); each single-cluster handle is queried twice, cold
// then warm. goldenEntries adds the other public entries.
func TestGoldenReleases(t *testing.T) {
	ctx := context.Background()
	q := QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 7}
	for _, tc := range []struct {
		name    string
		n, m, d int
		tgt, k  int
		workers int
		mutable bool
		want    [][]uint64
	}{
		{name: "d1", n: 1200, m: 800, d: 1, tgt: 500, k: 1, want: [][]uint64{{0x3fdcbb0d86467e96, 0x3fb2c4b12c4b12c5}}},
		{name: "d2-workers1", n: 3000, m: 2000, d: 2, tgt: 1500, k: 1, workers: 1, want: [][]uint64{{0x3fd6d60ac48fd31d, 0x3fe40990b06ed1b7, 0x3fcbde9a8ec23f25}}},
		{name: "d2-workers3", n: 3000, m: 2000, d: 2, tgt: 1500, k: 1, workers: 3, want: [][]uint64{{0x3fd6d60ac48fd31d, 0x3fe40990b06ed1b7, 0x3fcbde9a8ec23f25}}},
		{name: "d5", n: 1200, m: 800, d: 5, tgt: 500, k: 1, want: [][]uint64{{0x3fddb9d23f642a77, 0x3fda93501795e8a8, 0x3fdcdfc2517a0de7, 0x3fe3dd3bae799706, 0x3fda87ad24210c39, 0x3fd122fa36760aa8}}},
		{name: "k3", n: 1500, m: 900, d: 2, tgt: 300, k: 3, want: [][]uint64{{0x3fd9a49899d30870, 0x3fe2bc385a400bf8, 0x3fba8adc5732e6ce}, {0x3faadf83dd2a2150, 0xbfd908e6035e47e8, 0x4010cf696a6d09a5}}},
		{name: "mutable-append", n: 1200, m: 800, d: 2, tgt: 500, k: 1, mutable: true, want: [][]uint64{{0x3fd6de5e76ae2484, 0x3fe4ad3118fcd398, 0x3fc22327a1fc61fb}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts, _ := plantedPoints(rand.New(rand.NewSource(int64(tc.d)*100+int64(tc.k))), tc.n, tc.m, tc.d, 0.02)
			o := DatasetOptions{GridSize: 1024, IndexPolicy: IndexScalable, Workers: tc.workers, Mutable: tc.mutable}
			open := pts
			if tc.mutable {
				open = pts[:tc.n-200]
			}
			ds, err := Open(open, o)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if tc.mutable {
				if _, _, err := ds.Append(ctx, pts[tc.n-200:]); err != nil {
					t.Fatal(err)
				}
			}
			var got []Cluster
			if tc.k == 1 {
				c, err := ds.FindCluster(ctx, tc.tgt, q)
				if err != nil {
					t.Fatal(err)
				}
				// A second query on the warm handle (cached index and
				// frame) must release the same bits as the first.
				again, err := ds.FindCluster(ctx, tc.tgt, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(goldenBits([]Cluster{again}), goldenBits([]Cluster{c}), slices.Equal) {
					t.Errorf("warm re-query released %+v, first query %+v", again, c)
				}
				got = []Cluster{c}
			} else {
				ko := q
				ko.Epsilon = 12
				if got, err = ds.FindClusters(ctx, tc.k, tc.tgt, ko); err != nil {
					t.Fatal(err)
				}
			}
			if bits := goldenBits(got); !slices.EqualFunc(bits, tc.want, slices.Equal) {
				t.Errorf("release changed:\n got %s\nwant %s", goldenLiteral(bits), goldenLiteral(tc.want))
			}
		})
	}
	goldenEntries(t)
}

// goldenEntries pins the public entries outside the handle's FindCluster
// path bit for bit: KMeans, Aggregate, InteriorPoint (free function,
// immutable handle, and a 1-D mutable handle across an append and a
// delete), FindClustersBatch, a free FindClusters, and an IndexAuto k = 2
// cover at n = 6000 whose first round runs on the cell index and whose
// second round, on fewer than ExactIndexMaxN uncovered points, rebuilds an
// exact index. Releases carry no radius where the entry has none (KMeans
// centers, Aggregate's point, InteriorPoint's value).
func goldenEntries(t *testing.T) {
	ctx := context.Background()
	point := func(p Point) []uint64 {
		var out []uint64
		for _, x := range p {
			out = append(out, math.Float64bits(x))
		}
		return out
	}
	values := func() []float64 {
		vals := make([]float64, 2400)
		rng := rand.New(rand.NewSource(5))
		for i := range vals {
			vals[i] = 0.4 + 0.2*rng.Float64()
		}
		return vals
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) [][]uint64
		want [][]uint64
	}{
		{name: "kmeans", want: [][]uint64{{0x3fe7f6a1126c0c93, 0x3fe7c7faee7532d3}, {0x3fcf9d58a99672d1, 0x3fcfe30f1dd8a107}}, run: func(t *testing.T) [][]uint64 {
			rng := rand.New(rand.NewSource(1))
			var pts []Point
			for _, c := range []Point{{0.25, 0.25}, {0.75, 0.75}} {
				for i := 0; i < 400; i++ {
					pts = append(pts, Point{c[0] + (rng.Float64()*2-1)*0.02, c[1] + (rng.Float64()*2-1)*0.02})
				}
			}
			res, err := KMeans(pts, 2, KMeansOptions{
				Options: Options{Epsilon: 24, Delta: 0.06, Seed: 5, GridSize: 1024},
				T:       300, Rounds: 2, MoveRadius: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var out [][]uint64
			for _, c := range res.Centers {
				out = append(out, point(c))
			}
			return out
		}},
		{name: "aggregate", want: [][]uint64{{0x3fe00173703427e6, 0x3fe0154eed14e0c4}}, run: func(t *testing.T) [][]uint64 {
			rng := rand.New(rand.NewSource(2))
			rows := make([]float64, 40000)
			for i := range rows {
				rows[i] = 0.5 + rng.NormFloat64()*0.01
			}
			blockMean := func(rs []float64) Point {
				var s float64
				for _, r := range rs {
					s += r
				}
				m := s / float64(len(rs))
				return Point{m, m}
			}
			z, err := Aggregate(rows, blockMean, 2, 5, 0.8, Options{Epsilon: 4, Delta: 0.05, Seed: 13, GridSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			return [][]uint64{point(z)}
		}},
		{name: "interior-free", want: [][]uint64{{0x3fe001b34f7cadc4}}, run: func(t *testing.T) [][]uint64 {
			v, err := InteriorPoint(values(), 1600, Options{Epsilon: 4, Delta: 0.05, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return [][]uint64{{math.Float64bits(v)}}
		}},
		{name: "interior-handle", want: [][]uint64{{0x3fdfd9122f1c2f22}}, run: func(t *testing.T) [][]uint64 {
			vals := values()
			pts := make([]Point, len(vals))
			for i, v := range vals {
				pts[i] = Point{v}
			}
			ds, err := Open(pts, DatasetOptions{GridSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			v, err := ds.InteriorPoint(ctx, 1200, QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return [][]uint64{{math.Float64bits(v)}}
		}},
		{name: "interior-mutable", want: [][]uint64{{0x3fdfd9122f1c2f22}, {0x3fdfc08acaef9330}, {0x3fdfd91a97f04d16}}, run: func(t *testing.T) [][]uint64 {
			// A 1-D mutable handle: the current epoch after an append, epoch
			// 1 pinned after that append, then the current epoch after a
			// delete.
			vals := values()
			pts := make([]Point, len(vals))
			for i, v := range vals {
				pts[i] = Point{v}
			}
			ds, err := Open(pts[:2000], DatasetOptions{GridSize: 1024, Mutable: true})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if _, _, err := ds.Append(ctx, pts[2000:]); err != nil {
				t.Fatal(err)
			}
			var out [][]uint64
			query := func(at uint64) {
				v, err := ds.InteriorPoint(ctx, 1200, QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 3, AtEpoch: at})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, []uint64{math.Float64bits(v)})
			}
			query(0)
			query(1)
			if _, err := ds.Delete(ctx, []uint64{0, 5, 2100}); err != nil {
				t.Fatal(err)
			}
			query(0)
			return out
		}},
		{name: "batch", want: [][]uint64{{0x3fde4b27e01a4e27, 0x3fe1bead245fca24, 0x3fb8c5deb7c91baf}, {0x3fddfff630ad86fc, 0x3fe2540c7823c38a, 0x3fb0cf696a6d09a5}, {0x3fe974769fca029a, 0x3fe397b18cce83f6, 0x400b6d5b26e7cc5e}}, run: func(t *testing.T) [][]uint64 {
			pts, _ := plantedPoints(rand.New(rand.NewSource(51)), 1500, 900, 2, 0.02)
			ds, err := Open(pts, DatasetOptions{GridSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			var out [][]uint64
			for _, r := range ds.FindClustersBatch(ctx, []Query{
				{T: 500, K: 1, Opts: QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 7}},
				{T: 300, K: 2, Opts: QueryOptions{Epsilon: 12, Delta: 0.05, Seed: 9}},
			}) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				out = append(out, goldenBits(r.Clusters)...)
			}
			return out
		}},
		{name: "free-k2", want: [][]uint64{{0x3fdbdea657228d0b, 0x3fe29088db02720a, 0x3fb1b1e83a21ef34}, {0x3febba9580a8baec, 0x3fd8c50de9d5a164, 0x4008549f4feea8e7}}, run: func(t *testing.T) [][]uint64 {
			pts, _ := plantedPoints(rand.New(rand.NewSource(31)), 1500, 900, 2, 0.02)
			cs, err := FindClusters(pts, 2, 300, Options{Epsilon: 12, Delta: 0.05, Seed: 9, GridSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			return goldenBits(cs)
		}},
		{name: "auto-k2-n6000", want: [][]uint64{{0x3fe40a160ea049da, 0x3fe1d9e621a5864e, 0x3fbe14d796067d0b}, {0x3fde767e233596fc, 0x3fe083ae78a5f5a9, 0x400cc1195e7724b4}}, run: func(t *testing.T) [][]uint64 {
			pts, _ := plantedPoints(rand.New(rand.NewSource(41)), 6000, 3000, 2, 0.02)
			ds, err := Open(pts, DatasetOptions{GridSize: 1024, IndexPolicy: IndexAuto})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			cs, err := ds.FindClusters(ctx, 2, 1500, QueryOptions{Epsilon: 12, Delta: 0.05, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return goldenBits(cs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if bits := tc.run(t); !slices.EqualFunc(bits, tc.want, slices.Equal) {
				t.Errorf("release changed:\n got %s\nwant %s", goldenLiteral(bits), goldenLiteral(tc.want))
			}
		})
	}
}
