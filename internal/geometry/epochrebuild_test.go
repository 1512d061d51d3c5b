package geometry

import (
	"context"
	"testing"
)

// Re-pinning an old epoch after its cached views are evicted must answer
// bit-identically to the original pin, whatever the merge state: the
// rebuild may land on a newer merged base generation (base + empty delta
// instead of base + delta), or — once merges have rotated every fitting
// generation out — on no base at all (buffer-only view). Both partitions
// must be invisible to results; merges are a cost knob, never semantic.
func TestRebuildOldEpochAcrossMerges(t *testing.T) {
	ctx := context.Background()
	pts := shardTestPoints(t, 3, 600, 2)
	opts := shardTestOptions(2)
	n0 := 400
	tt := 150

	m, err := NewMutableShardedIndexBackends(ctx, frameOf(t, pts[:n0]), ShardedIndexOptions{
		Shards: 2, Cell: opts,
	}, func(ctx context.Context, shard int, cfg ShardConfig) (MutableShardBackend, error) {
		return NewMutableLocalShard(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	_, e2, err := m.Append(ctx, frameOf(t, pts[n0:]))
	if err != nil {
		t.Fatal(err)
	}
	snap1, err := m.Snapshot(ctx, e2)
	if err != nil {
		t.Fatal(err)
	}
	ref := cellIndexOf(t, pts, opts)
	assertSameBallIndex(t, "initial-pin", snap1, ref, tt)

	// evict drops epoch e2 from every FIFO view cache (coordinator and
	// shard caches hold ≤ 8 views) by pinning all newer epochs.
	evict := func(tag string) {
		t.Helper()
		for e := m.Epoch(); e > e2; e-- {
			if _, err := m.Snapshot(ctx, e); err != nil {
				t.Fatalf("%s: churn pin of epoch %d: %v", tag, e, err)
			}
		}
	}

	// Path 1: a merged base generation at exactly nView rows exists, so the
	// rebuild uses it with an empty delta (the original pin was base+delta).
	if err := m.Merge(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := m.Append(ctx, frameOf(t, pts[i:i+1])); err != nil {
			t.Fatal(err)
		}
	}
	evict("merged-base")
	snap2, err := m.Snapshot(ctx, e2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBallIndex(t, "rebuilt-merged-base", snap2, ref, tt)

	// Path 2: merge after every few appends until the FIFO of base
	// generations (maxBaseGens) holds only generations larger than e2's
	// prefix — the rebuild must then come entirely from the buffer.
	for i := 0; i < 3*maxBaseGens; i++ {
		if _, _, err := m.Append(ctx, frameOf(t, pts[i:i+1])); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := m.Merge(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	evict("buffer-only")
	snap3, err := m.Snapshot(ctx, e2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBallIndex(t, "rebuilt-buffer-only", snap3, ref, tt)
}
