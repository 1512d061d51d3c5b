package privcluster

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"privcluster/internal/geometry"
)

// TestDatasetBuildsOneLocalIndex: a handle without a Placement builds
// exactly one in-process index at any n and any GOMAXPROCS — a CellIndex
// (or the exact DistanceIndex under the auto policy at n ≤
// ExactIndexMaxN) when immutable, a MutableCellIndex when mutable. The
// deprecated DatasetOptions.Shards is ignored, whatever its value or sign.
func TestDatasetBuildsOneLocalIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(13))
	huge, _ := plantedPoints(rng, 100000, 60000, 2, 0.03)
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
	if ix := built(huge, DatasetOptions{}); !isType[*geometry.CellIndex](ix) {
		t.Errorf("default handle at n=100k, GOMAXPROCS=4 built %T, want *geometry.CellIndex", ix)
	}
	ds, err := Open(huge, DatasetOptions{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if !isType[*geometry.MutableCellIndex](ds.mut) {
		t.Errorf("mutable handle at n=100k, GOMAXPROCS=4 holds %T, want *geometry.MutableCellIndex", ds.mut)
	}
	for _, s := range []int{16, -1} {
		if ix := built(big, DatasetOptions{Shards: s}); !isType[*geometry.CellIndex](ix) {
			t.Errorf("Shards: %d at n=6000 built %T, want *geometry.CellIndex like the zero options", s, ix)
		}
		if ix := built(small, DatasetOptions{Shards: s}); !isType[*geometry.DistanceIndex](ix) {
			t.Errorf("Shards: %d at n=100 built %T, want *geometry.DistanceIndex like the zero options", s, ix)
		}
	}
}

func isType[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestTracedSweepLevels: a traced cold query reports the levels its L̂
// sweep visited, whichever backend ran it — the local CellIndex and a
// 2-partition Placement sweep the same ladder, so they report the same
// count.
func TestTracedSweepLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02) // > ExactIndexMaxN: scalable backend
	addrs, ln := startLoopbackServers(t, 2)
	levels := make(map[string]int64)
	for name, o := range map[string]DatasetOptions{
		"local":     {},
		"placement": {Placement: placementOf(addrs, 2, 1, ln.Dial)},
	} {
		ds, err := Open(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		var st QueryStats
		if _, err := ds.FindCluster(WithTrace(context.Background()), 2500, QueryOptions{Seed: 3, Stats: &st}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.ColdIndex {
			t.Fatalf("%s: query was not cold", name)
		}
		for _, sg := range st.Stages {
			levels[name] += sg.Counters["sweep_levels"]
		}
		ds.Close()
	}
	if levels["local"] <= 0 || levels["local"] != levels["placement"] {
		t.Errorf("sweep_levels: local %d, placement %d; want equal and > 0", levels["local"], levels["placement"])
	}
}
