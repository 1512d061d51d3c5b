package geometry

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"privcluster/internal/vec"
)

// frameOf packs test vectors into a flat frame, failing the test on ragged
// input.
func frameOf(t *testing.T, pts []vec.Vector) *vec.Frame {
	t.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// shardTestPoints builds a planted-cluster-plus-background workload with a
// block of duplicates, quantized onto a grid — the shapes (dense cluster,
// uniform background, exact duplicate classes) that exercise every branch
// of the count passes.
func shardTestPoints(t *testing.T, seed int64, n, d int) []vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid, err := NewGrid(1<<12, d)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]vec.Vector, 0, n)
	center := make(vec.Vector, d)
	for a := range center {
		center[a] = 0.3 + 0.4*rng.Float64()
	}
	for i := 0; i < n/2; i++ { // dense planted cluster
		p := make(vec.Vector, d)
		for a := range p {
			p[a] = center[a] + 0.02*(rng.Float64()*2-1)
		}
		pts = append(pts, grid.Quantize(p))
	}
	dup := grid.Quantize(center.Clone())
	for i := 0; i < n/10; i++ { // exact duplicates (radius-0 structure)
		pts = append(pts, dup)
	}
	for len(pts) < n { // uniform background
		p := make(vec.Vector, d)
		for a := range p {
			p[a] = rng.Float64()
		}
		pts = append(pts, grid.Quantize(p))
	}
	return pts
}

func shardTestOptions(d int) CellIndexOptions {
	grid, _ := NewGrid(1<<12, d)
	return CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()}
}

// cellIndexOf builds the reference CellIndex over test vectors.
func cellIndexOf(t *testing.T, pts []vec.Vector, opts CellIndexOptions) *CellIndex {
	t.Helper()
	ix, err := NewCellIndexFrame(frameOf(t, pts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// shardedIndexOf builds a ShardedIndex over test vectors with every
// partition served by an in-process LocalShard, closed when the test ends.
func shardedIndexOf(t *testing.T, pts []vec.Vector, opts ShardedIndexOptions) *ShardedIndex {
	t.Helper()
	ix, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), opts, localDialer)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// localShards returns the LocalShard behind each partition of ix.
func localShards(t *testing.T, ix *ShardedIndex) []*LocalShard {
	t.Helper()
	out := make([]*LocalShard, len(ix.backends))
	for i, be := range ix.backends {
		ls, ok := be.(*LocalShard)
		if !ok {
			t.Fatalf("backend %d is %T, want *LocalShard", i, be)
		}
		out[i] = ls
	}
	return out
}

func assertSameStep(t *testing.T, tag string, got, want *LStep) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: LStep = %+v, want %+v", tag, *got, *want)
	}
}

// assertSameSteps builds the L̂ step function of both indexes at every
// given t and requires bit equality of Breaks and Vals.
func assertSameSteps(t *testing.T, tag string, got, want BallIndex, ts ...int) {
	t.Helper()
	for _, tt := range ts {
		gs, err1 := got.BuildLStep(context.Background(), tt)
		ws, err2 := want.BuildLStep(context.Background(), tt)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: BuildLStep(%d): %v / %v", tag, tt, err1, err2)
		}
		assertSameStep(t, fmt.Sprintf("%s t=%d", tag, tt), gs, ws)
	}
}

// TestShardedIndexMatchesCellIndex is the partition equivalence guarantee
// at the geometry layer: for every shard count S = 1..8, a ShardedIndex
// over LocalShard partitions builds the L̂ step function bit-identically to
// a CellIndex over the same points, so the DP pipeline above consumes
// identical values (and hence identical noise streams) regardless of
// sharding.
func TestShardedIndexMatchesCellIndex(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		pts := shardTestPoints(t, int64(d), 900, d)
		opts := shardTestOptions(d)
		ref := cellIndexOf(t, pts, opts)
		tt := len(pts) / 3
		for s := 1; s <= 8; s++ {
			tag := fmt.Sprintf("d=%d s=%d", d, s)
			sh := shardedIndexOf(t, pts, ShardedIndexOptions{Shards: s, Cell: opts})
			if sh.Shards() != s {
				t.Fatalf("%s: built %d shards", tag, sh.Shards())
			}
			if sh.lad != ref.lad {
				t.Fatalf("%s: ladder diverged: %+v vs %+v", tag, sh.lad, ref.lad)
			}
			for _, shard := range localShards(t, sh) {
				if shard.members.lad != ref.lad || shard.src.ix.lad != ref.lad {
					t.Fatalf("%s: shard ladder diverged: %+v / %+v vs %+v", tag, shard.members.lad, shard.src.ix.lad, ref.lad)
				}
			}
			for i := range pts {
				if sh.dupCount[i] != ref.dupCount[i] {
					t.Fatalf("%s: dupCount[%d] = %d, want %d", tag, i, sh.dupCount[i], ref.dupCount[i])
				}
			}
			assertSameSteps(t, tag, sh, ref, 1, 2, tt, len(pts))
		}
	}
}

// TestShardedIndexEdgeCases covers the shard-count boundaries: S above n
// clamps so no shard is empty, S below 1 means 1, a single point works, a
// duplicate-only dataset resolves through the radius-0 path, and invalid
// inputs fail like the CellIndex.
func TestShardedIndexEdgeCases(t *testing.T) {
	opts := shardTestOptions(2)

	t.Run("shards exceed n", func(t *testing.T) {
		pts := shardTestPoints(t, 1, 5, 2)
		ref := cellIndexOf(t, pts, opts)
		sh := shardedIndexOf(t, pts, ShardedIndexOptions{Shards: 64, Cell: opts})
		if sh.Shards() != len(pts) {
			t.Errorf("S=64 over n=5 built %d shards, want %d", sh.Shards(), len(pts))
		}
		for _, shard := range localShards(t, sh) {
			if shard.NPoints() == 0 {
				t.Errorf("empty shard built")
			}
		}
		assertSameSteps(t, "S=64", sh, ref, 1, 2, 3, len(pts))
	})

	t.Run("zero and negative shards mean one", func(t *testing.T) {
		pts := shardTestPoints(t, 2, 50, 2)
		for _, s := range []int{0, -3} {
			sh := shardedIndexOf(t, pts, ShardedIndexOptions{Shards: s, Cell: opts})
			if sh.Shards() != 1 {
				t.Errorf("Shards=%d built %d shards, want 1", s, sh.Shards())
			}
		}
	})

	t.Run("single point", func(t *testing.T) {
		sh := shardedIndexOf(t, []vec.Vector{vec.Of(0.5, 0.5)}, ShardedIndexOptions{Shards: 4, Cell: opts})
		ls, err := sh.BuildLStep(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls.Breaks) != 1 || ls.Eval(0) != 1 {
			t.Errorf("singleton L = %v/%v, want the single piece L(0) = 1", ls.Breaks, ls.Vals)
		}
	})

	t.Run("all duplicates", func(t *testing.T) {
		pts := make([]vec.Vector, 40)
		for i := range pts {
			pts[i] = vec.Of(0.25, 0.75)
		}
		sh := shardedIndexOf(t, pts, ShardedIndexOptions{Shards: 8, Cell: opts})
		ls, err := sh.BuildLStep(context.Background(), 40)
		if err != nil {
			t.Fatal(err)
		}
		if len(ls.Breaks) != 1 || ls.Eval(0) != 40 {
			t.Errorf("L over duplicates = %v/%v, want the single piece L(0) = 40", ls.Breaks, ls.Vals)
		}
	})

	t.Run("invalid input", func(t *testing.T) {
		if _, err := NewShardedIndexBackends(context.Background(), nil, ShardedIndexOptions{Shards: 2, Cell: opts}, localDialer); err == nil {
			t.Error("empty input accepted")
		}
		sh := shardedIndexOf(t, shardTestPoints(t, 3, 20, 2), ShardedIndexOptions{Shards: 2, Cell: opts})
		for _, bad := range []int{0, -1, 21} {
			if _, err := sh.BuildLStep(context.Background(), bad); err == nil {
				t.Errorf("BuildLStep(t=%d) accepted", bad)
			}
		}
	})
}

// TestShardedIndexCancellation: a context cancelled before the build or
// during a BuildLStep sweep aborts with ctx.Err() and leaves no leaked
// goroutines — the worker pools and backend fan-outs always drain. Run
// under -race in CI.
func TestShardedIndexCancellation(t *testing.T) {
	pts := shardTestPoints(t, 4, 4000, 2)
	opts := shardTestOptions(2)
	baseline := runtime.NumGoroutine()

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewShardedIndexBackends(pre, frameOf(t, pts), ShardedIndexOptions{Shards: 4, Cell: opts}, localDialer); err != context.Canceled {
		t.Errorf("pre-cancelled build: err = %v, want context.Canceled", err)
	}

	sh := shardedIndexOf(t, pts, ShardedIndexOptions{Shards: 4, Cell: opts})
	mid, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sh.BuildLStep(mid, len(pts)/2)
		done <- err
	}()
	time.Sleep(time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err != nil && err != context.Canceled {
			t.Errorf("cancelled BuildLStep: err = %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled BuildLStep did not return")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+2 {
		t.Errorf("goroutines leaked: %d vs baseline %d", got, baseline)
	}
}

// TestAssignShardsBalanced: the Z-order partition splits all n ids into
// shards whose sizes differ by at most one, with every id appearing exactly
// once.
func TestAssignShardsBalanced(t *testing.T) {
	pts := shardTestPoints(t, 5, 103, 2)
	for _, s := range []int{1, 2, 7, 103} {
		parts := assignShards(frameOf(t, pts), s)
		seen := make([]bool, len(pts))
		minSz, maxSz := len(pts), 0
		for _, ids := range parts {
			if len(ids) < minSz {
				minSz = len(ids)
			}
			if len(ids) > maxSz {
				maxSz = len(ids)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("s=%d: id %d assigned twice", s, id)
				}
				seen[id] = true
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("s=%d: id %d unassigned", s, id)
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("s=%d: shard sizes range [%d, %d]", s, minSz, maxSz)
		}
	}
}
