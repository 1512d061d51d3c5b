package privcluster

import (
	"context"
	"math/rand"
	"testing"

	"privcluster/internal/geometry"
)

// TestShardedReleaseEquivalence pins the tentpole guarantee at the public
// API: under a fixed seed, the sharded scalable index (every S and both
// assignment orders of the underlying policy) releases bit-identical
// clusters to the unsharded one. Counts decompose into exact per-shard
// partial sums, so the DP mechanisms consume identical values and draw
// identical noise.
func TestShardedReleaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02) // > ExactIndexMaxN: scalable backend
	base := Options{Epsilon: 2, Delta: 1e-5, Seed: 9, Shards: 1}

	ref, err := FindCluster(pts, 3000, base)
	if err != nil {
		t.Fatal(err)
	}
	refK, err := FindClusters(pts, 2, 2500, Options{Epsilon: 6, Delta: 3e-5, Seed: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 4, 8} {
		o := base
		o.Shards = s
		got, err := FindCluster(pts, 3000, o)
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if got.Radius != ref.Radius || got.RawRadius != ref.RawRadius ||
			got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
			t.Errorf("S=%d FindCluster differs from unsharded: %+v vs %+v", s, got, ref)
		}
		gotK, err := FindClusters(pts, 2, 2500, Options{Epsilon: 6, Delta: 3e-5, Seed: 4, Shards: s})
		if err != nil {
			t.Fatalf("S=%d FindClusters: %v", s, err)
		}
		if len(gotK) != len(refK) {
			t.Fatalf("S=%d FindClusters: %d vs %d clusters", s, len(gotK), len(refK))
		}
		for i := range refK {
			if gotK[i].Radius != refK[i].Radius || gotK[i].Center[0] != refK[i].Center[0] {
				t.Errorf("S=%d cluster %d differs: %+v vs %+v", s, i, gotK[i], refK[i])
			}
		}
	}

	if _, err := FindCluster(pts, 3000, Options{Shards: -1, Epsilon: 2, Delta: 1e-5}); err == nil {
		t.Error("negative Shards accepted")
	}
}

// TestShardedReleaseEquivalence100k is the scale acceptance test: on the
// 100k scalable path, handles sharded at S ∈ {2, 4, 8} release bit-identical
// clusters to the unsharded handle under the same seed.
func TestShardedReleaseEquivalence100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point sharded equivalence skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(1))
	pts, _ := plantedPoints(rng, 100000, 60000, 2, 0.03)
	q := QueryOptions{Seed: 42}

	ref, err := Open(pts, DatasetOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.FindCluster(context.Background(), 50000, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{2, 4, 8} {
		ds, err := Open(pts, DatasetOptions{Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.FindCluster(context.Background(), 50000, q)
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		if got.Radius != want.Radius || got.RawRadius != want.RawRadius ||
			got.Center[0] != want.Center[0] || got.Center[1] != want.Center[1] {
			t.Errorf("S=%d release differs at n=100k: %+v vs %+v", s, got, want)
		}
	}
}

// TestDatasetEffectiveKeyShards: the handle's one index is built from its
// own options — automatic shards below the cutover build one CellIndex, an
// explicit request builds that many shards, and the exact backend (auto
// policy at n ≤ ExactIndexMaxN) never shards, whatever Shards says.
func TestDatasetEffectiveKeyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	big, _ := plantedPoints(rng, 6000, 4000, 2, 0.02)
	small, _ := plantedPoints(rng, 100, 60, 2, 0.02)

	built := func(pts []Point, o DatasetOptions) geometry.BallIndex {
		t.Helper()
		ds, err := Open(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		ix, cold, err := ds.index()
		if err != nil {
			t.Fatal(err)
		}
		if !cold {
			t.Error("first index() call did not run the build")
		}
		return ix.(*cachedIndex).BallIndex
	}
	// Auto policy → scalable at n=6000, auto shards → unsharded.
	ix := built(big, DatasetOptions{})
	if _, ok := ix.(*geometry.CellIndex); !ok {
		t.Errorf("auto shards below the cutover built %T, want *geometry.CellIndex", ix)
	}
	ix = built(big, DatasetOptions{Shards: 16})
	if sh, ok := ix.(*geometry.ShardedIndex); !ok || sh.Shards() != 16 {
		t.Errorf("Shards: 16 built %T, want a 16-shard *geometry.ShardedIndex", ix)
	}
	ix = built(small, DatasetOptions{Shards: 8})
	if _, ok := ix.(*geometry.DistanceIndex); !ok {
		t.Errorf("auto policy at n=100 built %T, want *geometry.DistanceIndex", ix)
	}
}

// TestTracedSweepLevels: a traced cold query reports the levels its L̂
// sweep visited, whichever backend ran it — the unsharded CellIndex and a
// 2-shard index sweep the same ladder, so they report the same count.
func TestTracedSweepLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02) // > ExactIndexMaxN: scalable backend
	levels := make(map[int]int64)
	for _, shards := range []int{1, 2} {
		ds, err := Open(pts, DatasetOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var st QueryStats
		if _, err := ds.FindCluster(WithTrace(context.Background()), 2500, QueryOptions{Seed: 3, Stats: &st}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !st.ColdIndex {
			t.Fatalf("shards=%d: query was not cold", shards)
		}
		for _, sg := range st.Stages {
			levels[shards] += sg.Counters["sweep_levels"]
		}
	}
	if levels[1] <= 0 || levels[1] != levels[2] {
		t.Errorf("sweep_levels: 1 shard %d, 2 shards %d; want equal and > 0", levels[1], levels[2])
	}
}
