package privcluster

import (
	"context"
	"math/rand"
	"testing"

	"privcluster/internal/core"
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

// TestDatasetIndexCacheKey is the satellite regression test: the index
// cache keys by everything that affects the built index (policy, shards,
// workers), so a changed shard count builds a fresh index rather than
// serving a stale one, while a repeated key still hits the cache.
func TestDatasetIndexCacheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02)
	ds, err := Open(pts, DatasetOptions{IndexPolicy: IndexScalable})
	if err != nil {
		t.Fatal(err)
	}
	shardsOf := func(key indexKey) int {
		t.Helper()
		ix, _, err := ds.index(key)
		if err != nil {
			t.Fatal(err)
		}
		ci, ok := ix.(*cachedIndex)
		if !ok {
			t.Fatalf("index cache returned %T", ix)
		}
		sh, ok := ci.BallIndex.(*geometry.ShardedIndex)
		if !ok {
			return 1 // unsharded CellIndex
		}
		return sh.Shards()
	}

	k2 := indexKey{pol: core.IndexScalable, shards: 2}
	k4 := indexKey{pol: core.IndexScalable, shards: 4}
	if got := shardsOf(k2); got != 2 {
		t.Errorf("key{shards: 2} built a %d-shard index", got)
	}
	if got := shardsOf(k4); got != 4 {
		t.Errorf("key{shards: 4} served a %d-shard index — stale cache hit", got)
	}
	if builds := ds.builds.Load(); builds != 2 {
		t.Errorf("two distinct keys built the index %d times, want 2", builds)
	}
	if got := shardsOf(k2); got != 2 {
		t.Errorf("repeated key{shards: 2} returned a %d-shard index", got)
	}
	if builds := ds.builds.Load(); builds != 2 {
		t.Errorf("repeated key rebuilt: %d builds, want 2", builds)
	}

	// A worker-count change is part of the key too (the pool budget is
	// baked into the built index).
	kw := indexKey{pol: core.IndexScalable, shards: 2, workers: 3}
	if got := shardsOf(kw); got != 2 {
		t.Errorf("worker-keyed index has %d shards", got)
	}
	if builds := ds.builds.Load(); builds != 3 {
		t.Errorf("changed workers did not build a fresh index: %d builds, want 3", builds)
	}

	// FIFO eviction keeps the cache bounded without breaking correctness.
	for s := 5; s < 5+defaultIndexCacheSize+1; s++ {
		if got := shardsOf(indexKey{pol: core.IndexScalable, shards: s}); got != s {
			t.Fatalf("key{shards: %d} returned a %d-shard index", s, got)
		}
	}
	ds.mu.Lock()
	cached := len(ds.indexes)
	ds.mu.Unlock()
	if cached > defaultIndexCacheSize {
		t.Errorf("index cache holds %d entries, bound is %d", cached, defaultIndexCacheSize)
	}
}

// TestDatasetEffectiveKeyShards: the handle resolves automatic shard
// counts through core.ResolveShards — below the auto cutover the key says
// one shard; an explicit request is clamped to n; the exact backend never
// shards.
func TestDatasetEffectiveKeyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	big, _ := plantedPoints(rng, 6000, 4000, 2, 0.02)
	small, _ := plantedPoints(rng, 100, 60, 2, 0.02)

	ds, err := Open(big, DatasetOptions{}) // auto policy → scalable at n=6000
	if err != nil {
		t.Fatal(err)
	}
	if key := ds.effectiveKey(); key.pol != core.IndexScalable || key.shards != 1 {
		t.Errorf("auto shards below the cutover: key = %+v, want scalable/1", key)
	}
	ds, err = Open(big, DatasetOptions{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if key := ds.effectiveKey(); key.shards != 16 {
		t.Errorf("explicit shards: key = %+v, want 16", key)
	}
	ds, err = Open(small, DatasetOptions{Shards: 8}) // n=100 ≤ ExactIndexMaxN → exact
	if err != nil {
		t.Fatal(err)
	}
	if key := ds.effectiveKey(); key.pol != core.IndexExact || key.shards != 1 {
		t.Errorf("exact backend sharded: key = %+v", key)
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
