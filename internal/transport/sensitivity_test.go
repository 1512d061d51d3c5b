package transport

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// TestRemoteLSensitivityAtMostTwo checks Lemma 4.5 over the wire: the L̂
// a ShardedIndex sums from S = 2 loopback RemoteShards moves by at most 2
// when one row of the dataset is replaced. The shard servers compute every
// count; the property holds only if each server's count is the same
// positional function of the data as a local CellIndex's. The two dataset
// families mirror internal/geometry's TestLSensitivityAtMostTwo: random
// clustered points, and a stacked cluster whose sources all share the
// boundary cell the neighbour's moved row lands in — where a count that let
// a cell's occupancy decide its contribution would move L̂ by about
// 3m/t > 2.
func TestRemoteLSensitivityAtMostTwo(t *testing.T) {
	addrs, copts := startServers(t, 2, ServerOptions{})
	cell := geometry.CellIndexOptions{MinRadius: 1.0 / 1024, MaxRadius: math.Sqrt2}
	lstep := func(t *testing.T, pts []vec.Vector, tt int) *geometry.LStep {
		t.Helper()
		ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts),
			geometry.ShardedIndexOptions{Shards: 2, Cell: cell}, func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
				return DialShard(ctx, addrs[shard], cfg, copts)
			})
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		ls, err := ix.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	cases := []struct {
		name   string
		trials int
		// data returns a dataset, its neighbour (one row replaced) and t.
		data func(rng *rand.Rand) (pts, nb []vec.Vector, tt int)
	}{
		{"random", 12, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			n := 25 + rng.Intn(30)
			pts := make([]vec.Vector, n)
			for i := range pts {
				if i < n/2 { // a cluster of radius 0.1 around the middle
					pts[i] = vec.Of(0.5+(rng.Float64()*2-1)*0.1/math.Sqrt2, 0.5+(rng.Float64()*2-1)*0.1/math.Sqrt2)
				} else {
					pts[i] = vec.Of(rng.Float64(), rng.Float64())
				}
			}
			nb := append([]vec.Vector(nil), pts...)
			nb[rng.Intn(n)] = vec.Of(rng.Float64(), rng.Float64())
			return pts, nb, 2 + rng.Intn(n-2)
		}},
		{"dense boundary", 48, func(rng *rand.Rand) ([]vec.Vector, []vec.Vector, int) {
			// m rows stacked on a dyadic point c, 1–5 rows (drawn per
			// point) on each other lattice point within 2/64 of it, and one
			// far row that the neighbour moves onto a lattice point whose
			// cell touches c (see the geometry family of the same name).
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
				l1, l2 := lstep(t, pts, tt), lstep(t, nb, tt)
				radii := append([]float64{0, 0.01, 0.05, 0.2, 1, 2}, l1.Breaks...)
				radii = append(radii, l2.Breaks...)
				for _, r := range radii {
					if d := math.Abs(l1.Eval(r) - l2.Eval(r)); d > 2+1e-9 {
						t.Fatalf("trial %d: sensitivity %v > 2 at r=%v (n=%d t=%d)", trial, d, r, len(pts), tt)
					}
				}
			}
		})
	}
}
