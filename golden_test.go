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
// then warm.
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
}
