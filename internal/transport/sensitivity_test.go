package transport

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

// TestOwnerChangeSensitivity checks Lemma 4.5 where partitioning could
// break it: the neighbour moves the row with the lowest Z-order key to the
// top corner, so the row changes its owner and every block cut of the
// Z-order partition shifts by one row. For S = 2 and 3 LocalShard backends
// (d = 1 and 2) and loopback RemoteShards (d = 1), each dataset's L̂ must
// equal the in-process CellIndex's bit for bit, and the two must differ by
// at most 2 at every radius (a step function moves only at its breaks).
func TestOwnerChangeSensitivity(t *testing.T) {
	addrs, copts := startServers(t, 3, ServerOptions{})
	backends := []struct {
		name string
		dims []int
		dial geometry.ShardDialer
	}{
		{"local", []int{1, 2}, func(_ context.Context, _ int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
			return geometry.NewLocalShard(cfg)
		}},
		{"remote", []int{1}, func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
			return DialShard(ctx, addrs[shard], cfg, copts)
		}},
	}
	rng := rand.New(rand.NewSource(9))
	for _, be := range backends {
		for _, d := range be.dims {
			cell := testCellOptions(d)
			for _, s := range []int{2, 3} {
				for trial := 0; trial < 6; trial++ {
					tag := fmt.Sprintf("%s d=%d S=%d trial %d", be.name, d, s, trial)
					n := 30 + rng.Intn(30)
					pts := make([]vec.Vector, n)
					for i := range pts {
						p := make(vec.Vector, d)
						for a := range p {
							if i < n/2 { // a cluster of radius 0.1
								p[a] = 0.5 + (rng.Float64()*2-1)*0.1/math.Sqrt(float64(d))
							} else {
								p[a] = 0.05 + 0.9*rng.Float64()
							}
						}
						pts[i] = p
					}
					moved := rng.Intn(n)
					pts[moved] = make(vec.Vector, d) // the origin: the lowest key
					nb := slices.Clone(pts)
					nb[moved] = make(vec.Vector, d)
					for a := range nb[moved] {
						nb[moved][a] = 1 // the top corner: the highest key
					}
					tt := 2 + rng.Intn(n-2)
					var steps [2]*geometry.LStep
					var owners [2][]int
					for k, data := range [][]vec.Vector{pts, nb} {
						steps[k], owners[k] = ownedLStep(t, tag, data, s, cell, tt, be.dial)
						want, err := cellIndexOf(t, data, cell).BuildLStep(context.Background(), tt)
						if err != nil {
							t.Fatal(err)
						}
						assertStepEqual(t, tag, steps[k], want)
					}
					if owners[0][moved] == owners[1][moved] {
						t.Fatalf("%s: the moved row stayed with shard %d", tag, owners[0][moved])
					}
					if slices.Equal(owners[0][:moved], owners[1][:moved]) && slices.Equal(owners[0][moved+1:], owners[1][moved+1:]) {
						t.Fatalf("%s: no block cut shifted", tag)
					}
					for _, r := range append(slices.Clone(steps[0].Breaks), steps[1].Breaks...) {
						if diff := math.Abs(steps[0].Eval(r) - steps[1].Eval(r)); diff > 2+1e-9 {
							t.Fatalf("%s: |ΔL̂| = %v > 2 at r=%v (n=%d t=%d)", tag, diff, r, n, tt)
						}
					}
				}
			}
		}
	}
}

// ownedLStep builds the L̂ of pts over s shards dialed through dial, and
// returns it with each row's owning shard.
func ownedLStep(t *testing.T, tag string, pts []vec.Vector, s int, cell geometry.CellIndexOptions, tt int, dial geometry.ShardDialer) (*geometry.LStep, []int) {
	t.Helper()
	owner := make([]int, len(pts))
	var mu sync.Mutex
	ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts), geometry.ShardedIndexOptions{Shards: s, Cell: cell},
		func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
			mu.Lock()
			for _, g := range cfg.Owned {
				owner[g] = shard
			}
			mu.Unlock()
			return dial(ctx, shard, cfg)
		})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	defer ix.Close()
	ls, err := ix.BuildLStep(context.Background(), tt)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return ls, owner
}
