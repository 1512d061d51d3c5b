package geometry_test

import (
	"context"
	"math"
	"testing"

	"privcluster/internal/bench"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// BenchmarkShardPartialCounts times what a shard server does for one
// remote L-step sweep: LocalShard.PartialCounts on both shards of an S = 2
// split, at ladder levels 0–24 and limit n/2, over the n = 6000 planted
// ball (bench.IndexWorkload, d = 2) on the handle's 2¹⁶ grid ladder. The
// shards and every level are built before the timer starts, so the loop
// times the count passes alone.
func BenchmarkShardPartialCounts(b *testing.B) {
	const n, levels = 6000, 25
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, _, err := bench.IndexWorkload(1, n, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		b.Fatal(err)
	}
	var shards []*geometry.LocalShard
	dial := func(_ context.Context, _ int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
		s, err := geometry.NewLocalShard(cfg)
		shards = append(shards, s)
		return s, err
	}
	opts := geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()}
	ix, err := geometry.NewShardedIndexBackends(context.Background(), f, geometry.ShardedIndexOptions{Shards: 2, Cell: opts}, dial)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	// The ladder radii, as the index derives them (two levels per octave).
	radii := make([]float64, levels)
	for j := range radii {
		radii[j] = opts.MinRadius * math.Pow(math.Pow(2, 0.5), float64(j))
	}
	sweep := func() {
		for _, s := range shards {
			for j, r := range radii {
				if _, err := s.PartialCounts(context.Background(), geometry.EpochFrozen, j, r, n/2); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	sweep() // builds every level
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
