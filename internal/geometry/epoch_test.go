package geometry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"privcluster/internal/vec"
)

// assertSameBallIndex asserts that got exposes the same points as ref and
// builds bit-identical L̂ step functions at several t — the equivalence
// currency every mutable snapshot must pay in (BuildLStep is the whole
// BallIndex query surface the mechanism reads).
func assertSameBallIndex(t *testing.T, tag string, got, ref BallIndex, tt int) {
	t.Helper()
	if got.N() != ref.N() {
		t.Fatalf("%s: N = %d, want %d", tag, got.N(), ref.N())
	}
	gf, rf := got.Frame(), ref.Frame()
	for i := 0; i < rf.N(); i++ {
		for a, x := range rf.Row(i) {
			if gf.Row(i)[a] != x {
				t.Fatalf("%s: frame row %d diverged", tag, i)
			}
		}
	}
	assertSameSteps(t, tag, got, ref, 1, 2, tt, ref.N())
}

// mutableVariants runs a subtest for each MutableBallIndex implementation
// over the same seed prefix: the single-partition MutableCellIndex and the
// MutableShardedIndex over in-process mutable shards.
func mutableVariants(t *testing.T, pts []vec.Vector, n0 int, opts CellIndexOptions, run func(t *testing.T, m MutableBallIndex, sharded bool)) {
	t.Helper()
	t.Run("cell", func(t *testing.T) {
		m, err := NewMutableCellIndexFrame(frameOf(t, pts[:n0]), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		run(t, m, false)
	})
	t.Run("sharded", func(t *testing.T) {
		m, err := NewMutableShardedIndexBackends(context.Background(), frameOf(t, pts[:n0]), ShardedIndexOptions{
			Shards: 3, Cell: opts,
		}, func(ctx context.Context, shard int, cfg ShardConfig) (MutableShardBackend, error) {
			return NewMutableLocalShard(cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		run(t, m, true)
	})
}

// TestMutableIndexMatchesFresh is the tentpole equivalence guarantee of the
// epoch model: Open(prefix) + Append(rest) pinned at its final epoch must
// answer every BallIndex query bit-identically to a fresh index over the
// full point set — and intermediate epochs to fresh indexes over their
// prefixes — before and after merges, for both mutable implementations.
func TestMutableIndexMatchesFresh(t *testing.T) {
	for _, d := range []int{1, 2} {
		pts := shardTestPoints(t, int64(10+d), 600, d)
		opts := shardTestOptions(d)
		n0 := len(pts) / 2
		tt := len(pts) / 3
		mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
			ctx := context.Background()
			// Three append batches, snapshotting after each.
			cuts := []int{n0, n0 + 50, n0 + 51, len(pts)}
			epochs := make([]Epoch, 0, len(cuts))
			epochs = append(epochs, m.Epoch())
			for bi := 0; bi+1 < len(cuts); bi++ {
				_, e, err := m.Append(ctx, frameOf(t, pts[cuts[bi]:cuts[bi+1]]))
				if err != nil {
					t.Fatal(err)
				}
				epochs = append(epochs, e)
			}
			if m.Rows() != len(pts) {
				t.Fatalf("Rows = %d, want %d", m.Rows(), len(pts))
			}
			for bi, e := range epochs {
				snap, err := m.Snapshot(ctx, e)
				if err != nil {
					t.Fatalf("Snapshot(%d): %v", e, err)
				}
				ref := cellIndexOf(t, pts[:cuts[bi]], opts)
				assertSameBallIndex(t, fmt.Sprintf("d=%d epoch=%d", d, e), snap, ref, tt)
			}

			// A merge must not change anything a later epoch sees: merge,
			// append one more row, and check the new epoch against a fresh
			// index over the extended set.
			if err := m.Merge(ctx); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			extra := append(append([]vec.Vector{}, pts...), pts[0], pts[1])
			_, e, err := m.Append(ctx, frameOf(t, extra[len(pts):]))
			if err != nil {
				t.Fatal(err)
			}
			snap, err := m.Snapshot(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			ref := cellIndexOf(t, extra, opts)
			assertSameBallIndex(t, fmt.Sprintf("d=%d post-merge", d), snap, ref, tt)
		})
	}
}

// TestMutableIndexDelete: deletes compact to exactly the survivor set — the
// new epoch is bit-identical to a fresh index over the survivors in
// insertion order — and every older epoch retires with ErrEpochRetired
// while an already-pinned snapshot keeps answering from the old storage.
func TestMutableIndexDelete(t *testing.T) {
	d := 2
	pts := shardTestPoints(t, 31, 500, d)
	opts := shardTestOptions(d)
	n0 := 400
	tt := 120
	mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		ctx := context.Background()
		appended, e1, err := m.Append(ctx, frameOf(t, pts[n0:]))
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := m.Snapshot(ctx, e1)
		if err != nil {
			t.Fatal(err)
		}
		pinnedStep, err := pinned.BuildLStep(ctx, tt)
		if err != nil {
			t.Fatal(err)
		}

		// Delete a mix of base rows (initial ids are 0..n0-1) and appended
		// rows.
		del := []uint64{0, 3, uint64(n0) - 1, appended[0], appended[len(appended)-1]}
		gone := make(map[uint64]struct{}, len(del))
		for _, id := range del {
			gone[id] = struct{}{}
		}
		e2, err := m.Delete(ctx, del)
		if err != nil {
			t.Fatalf("Delete: %v", err)
		}
		var survivors []vec.Vector
		for i, p := range pts {
			if _, ok := gone[uint64(i)]; ok {
				continue
			}
			survivors = append(survivors, p)
		}
		snap, err := m.Snapshot(ctx, e2)
		if err != nil {
			t.Fatal(err)
		}
		ref := cellIndexOf(t, survivors, opts)
		assertSameBallIndex(t, "post-delete", snap, ref, tt)

		// Epoch 1 (the seed epoch, never pinned) retired; the pinned e1
		// stays servable from its cached view, and still answers as before.
		if _, err := m.Snapshot(ctx, 1); !errors.Is(err, ErrEpochRetired) {
			t.Fatalf("Snapshot(retired) err = %v, want ErrEpochRetired", err)
		}
		if _, err := m.Snapshot(ctx, e1); err != nil {
			t.Fatalf("Snapshot(pinned retired epoch): %v", err)
		}
		after, err := pinned.BuildLStep(ctx, tt)
		if err != nil {
			t.Fatalf("pinned snapshot unusable after delete: %v", err)
		}
		assertSameStep(t, "pinned snapshot after delete", after, pinnedStep)

		// Rejections: unknown ids, duplicate ids, future epochs, emptying.
		if _, err := m.Delete(ctx, []uint64{1 << 40}); err == nil {
			t.Fatal("delete of unknown id succeeded")
		}
		if _, err := m.Delete(ctx, []uint64{5, 5}); err == nil {
			t.Fatal("delete with duplicate ids succeeded")
		}
		if _, err := m.Snapshot(ctx, m.Epoch()+1); err == nil {
			t.Fatal("snapshot of a future epoch succeeded")
		}
	})
}

// TestMutableIndexClosed: operations on a closed index fail with
// ErrIndexClosed, Close is idempotent, and pinned snapshots survive it.
func TestMutableIndexClosed(t *testing.T) {
	pts := shardTestPoints(t, 7, 120, 2)
	opts := shardTestOptions(2)
	mutableVariants(t, pts, len(pts), opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		ctx := context.Background()
		snap, err := m.Snapshot(ctx, m.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if _, _, err := m.Append(ctx, frameOf(t, pts[:1])); !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("Append after Close: %v, want ErrIndexClosed", err)
		}
		if _, err := m.Delete(ctx, []uint64{0}); !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("Delete after Close: %v, want ErrIndexClosed", err)
		}
		if _, err := m.Snapshot(ctx, m.Epoch()); !errors.Is(err, ErrIndexClosed) {
			t.Fatalf("Snapshot after Close: %v, want ErrIndexClosed", err)
		}
		if sharded {
			// Backend-mode snapshots answer through the (now closed)
			// shards; their queries must fail, not hang or lie.
			if _, err := snap.BuildLStep(ctx, len(pts)/3); err == nil {
				t.Fatal("backend-mode snapshot still answering after Close")
			}
		} else {
			// In-process snapshots hold their own storage and stay
			// queryable.
			if _, err := snap.BuildLStep(ctx, len(pts)/3); err != nil {
				t.Fatalf("pinned snapshot unusable after Close: %v", err)
			}
		}
	})
}

// TestMutableIndexDomain: rows outside the pinned ladder domain — far
// away, or with a NaN coordinate, which no bounding box sees — are
// rejected atomically with ErrOutOfDomain: the epoch does not advance and
// the index keeps answering.
func TestMutableIndexDomain(t *testing.T) {
	pts := shardTestPoints(t, 3, 100, 2)
	opts := shardTestOptions(2)
	mutableVariants(t, pts, len(pts), opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		ctx := context.Background()
		before := m.Epoch()
		for _, row := range []vec.Vector{{1e6, 1e6}, {math.NaN(), 0.5}} {
			if _, _, err := m.Append(ctx, frameOf(t, []vec.Vector{row})); !errors.Is(err, ErrOutOfDomain) {
				t.Fatalf("append of %v: %v, want ErrOutOfDomain", row, err)
			}
			if m.Epoch() != before {
				t.Fatalf("epoch advanced on rejected append of %v: %d -> %d", row, before, m.Epoch())
			}
		}
		if _, err := m.Snapshot(ctx, before); err != nil {
			t.Fatalf("Snapshot after rejected append: %v", err)
		}
	})
}

// TestMutableIndexConcurrency exercises the epoch contract under real
// concurrency (run with -race in CI): a mutator appends, deletes and
// merges while queriers pin epochs and verify each pinned snapshot answers
// identically on repeated queries, and background merges land whenever
// they land. The sharded variant is the mutable coordinator a Placement
// handle runs, over in-process MutableLocalShards.
func TestMutableIndexConcurrency(t *testing.T) {
	pts := shardTestPoints(t, 17, 400, 2)
	opts := shardTestOptions(2)
	n0 := 200
	mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		ctx := context.Background()
		var wg sync.WaitGroup
		stop := make(chan struct{})

		// Mutator: appends the tail in small batches, deleting occasionally.
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(stop)
			var mine []uint64
			for i, at := 0, n0; at < len(pts); i, at = i+1, at+20 {
				hi := at + 20
				if hi > len(pts) {
					hi = len(pts)
				}
				ids, _, err := m.Append(ctx, frameOf(t, pts[at:hi]))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mine = append(mine, ids...)
				if len(mine) >= 40 {
					if _, err := m.Delete(ctx, mine[:10]); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					mine = mine[10:]
				}
				if i%3 == 2 {
					if err := m.Merge(ctx); err != nil {
						t.Errorf("merge: %v", err)
						return
					}
				}
			}
		}()

		// Queriers: pin whatever the current epoch is and check the snapshot
		// is internally stable (two reads of the same statistic agree) — a
		// pin racing a delete may find its epoch already retired, which is a
		// legal outcome, not an error.
		for q := 0; q < 3; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap, err := m.Snapshot(ctx, m.Epoch())
					if err != nil {
						if errors.Is(err, ErrEpochRetired) {
							continue // pin raced a delete: legal
						}
						t.Errorf("snapshot: %v", err)
						return
					}
					a, errA := snap.BuildLStep(ctx, n0/3)
					b, errB := snap.BuildLStep(ctx, n0/3)
					// A sharded pin can lose its shard-side views to FIFO
					// eviction once deletes retire its epoch — the query
					// fails (never lies); any successful pair must agree.
					if errA != nil || errB != nil {
						if !errors.Is(errA, ErrEpochRetired) && !errors.Is(errB, ErrEpochRetired) {
							t.Errorf("pinned query failed: %v / %v", errA, errB)
							return
						}
						continue
					}
					if !reflect.DeepEqual(a, b) {
						t.Errorf("pinned snapshot unstable: %v then %v", a, b)
						return
					}
				}
			}()
		}
		wg.Wait()

		// Quiesced: the final epoch must match a fresh index over the live
		// rows (which the reference recomputes from the snapshot's frame).
		snap, err := m.Snapshot(ctx, m.Epoch())
		if err != nil {
			t.Fatal(err)
		}
		live := make([]vec.Vector, snap.N())
		for i := range live {
			live[i] = vec.Vector(snap.Frame().Row(i)).Clone()
		}
		ref := cellIndexOf(t, live, opts)
		assertSameBallIndex(t, "quiesced", snap, ref, len(live)/3)
	})
}

// TestMutableSnapshotCancellation: a cancelled pin returns the context
// error without poisoning the cached view for later pinners.
func TestMutableSnapshotCancellation(t *testing.T) {
	pts := shardTestPoints(t, 5, 150, 2)
	opts := shardTestOptions(2)
	m, err := NewMutableCellIndexFrame(frameOf(t, pts), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Snapshot(ctx, m.Epoch()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Snapshot: %v, want context.Canceled", err)
	}
	if _, err := m.Snapshot(context.Background(), m.Epoch()); err != nil {
		t.Fatalf("Snapshot after cancelled pin: %v", err)
	}
}
