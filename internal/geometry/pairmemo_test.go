package geometry

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"privcluster/internal/vec"
)

func mutableLocalDialer(_ context.Context, _ int, cfg ShardConfig) (MutableShardBackend, error) {
	return NewMutableLocalShard(cfg)
}

// newestBase returns the CellIndex of a mutable index's newest base
// generation — the source base whose pair memo its views use.
func newestBase(m *MutableCellIndex) *CellIndex {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bases[len(m.bases)-1].ix
}

// memoBlocks returns how many blocks a base's pair memo holds.
func memoBlocks(ix *CellIndex) int {
	ix.pairs.mu.Lock()
	defer ix.pairs.mu.Unlock()
	return len(ix.pairs.blocks)
}

// snapshotAt pins epoch e or fails the test.
func snapshotAt(t *testing.T, m MutableBallIndex, e Epoch) BallIndex {
	t.Helper()
	snap, err := m.Snapshot(context.Background(), e)
	if err != nil {
		t.Fatalf("Snapshot(%d): %v", e, err)
	}
	return snap
}

// appendRows appends pts as one batch and returns the new epoch.
func appendRows(t *testing.T, m MutableBallIndex, pts []vec.Vector) Epoch {
	t.Helper()
	_, e, err := m.Append(context.Background(), frameOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEpochBasePairMemo: epoch views that share a frozen base reuse its
// memoized base×base count blocks, and every sweep stays bit-identical to a
// fresh CellIndex over the epoch's rows — at small and large t, including a
// t whose sweep climbs above every level the memo holds. A second epoch at
// the same t fills nothing; a merge or a delete compaction starts a fresh
// memo on the new base. PartialCounts keys the memo by radius as well as
// level (see testPairMemoRadiusKeyed).
func TestEpochBasePairMemo(t *testing.T) {
	ctx := context.Background()
	d := 2
	pts := shardTestPoints(t, 17, 700, d)
	opts := shardTestOptions(d)
	n0, tq := 500, 120

	mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		// The base the views' source groups memoize on: the mutable index's
		// own, or each shard's source index.
		bases := func() []*CellIndex {
			if !sharded {
				return []*CellIndex{newestBase(m.(*MutableCellIndex))}
			}
			var out []*CellIndex
			for _, be := range m.(*MutableShardedIndex).backends {
				s := be.(*MutableLocalShard)
				src, mem := newestBase(s.src), newestBase(s.members)
				src.pairs.mu.Lock()
				if got := src.pairs.mem; got != nil && got != mem {
					t.Errorf("source base memoizes against a stale member base")
				}
				src.pairs.mu.Unlock()
				out = append(out, src)
			}
			return out
		}
		blocks := func() int {
			n := 0
			for _, ix := range bases() {
				n += memoBlocks(ix)
			}
			return n
		}

		// Epoch 1: the base alone, swept at a small t — fills the levels
		// that sweep reaches.
		e1 := m.Epoch()
		ref1 := cellIndexOf(t, pts[:n0], opts)
		assertSameSteps(t, "epoch 1", snapshotAt(t, m, e1), ref1, tq)
		held := blocks()
		if held == 0 {
			t.Fatal("epoch 1 sweep stored no base×base block")
		}

		// Epoch 2 at the same t: every level comes from the memo.
		e2 := appendRows(t, m, pts[n0:n0+40])
		ref2 := cellIndexOf(t, pts[:n0+40], opts)
		fills, hits := statPairMemoFill.Value(), statPairMemoHit.Value()
		assertSameSteps(t, "epoch 2", snapshotAt(t, m, e2), ref2, tq)
		if f := statPairMemoFill.Value() - fills; f != 0 {
			t.Errorf("epoch 2 at t=%d filled %d blocks, want 0", tq, f)
		}
		if statPairMemoHit.Value() == hits {
			t.Error("epoch 2 took no block from the memo")
		}

		// Epoch 3 at t ∈ {2, n/4, n/2, n}: t = n climbs past every level
		// the memo holds, so it fills the rest as it goes.
		e3 := appendRows(t, m, pts[n0+40:n0+41])
		n3 := n0 + 41
		ref3 := cellIndexOf(t, pts[:n3], opts)
		assertSameSteps(t, "epoch 3", snapshotAt(t, m, e3), ref3, 2, n3/4, n3/2, n3)
		if blocks() <= held {
			t.Errorf("t=%d sweep held %d blocks, no more than the %d before it", n3, blocks(), held)
		}
		// And a further epoch reads the whole ladder back bit-identically.
		e4 := appendRows(t, m, pts[n3:n3+30])
		ref4 := cellIndexOf(t, pts[:n3+30], opts)
		assertSameSteps(t, "epoch 4", snapshotAt(t, m, e4), ref4, 2, (n3+30)/2, n3+30)

		// A merge swaps in a new base generation, whose memo starts empty.
		old := bases()
		if err := m.Merge(ctx); err != nil {
			t.Fatal(err)
		}
		if slices.Equal(bases(), old) || blocks() != 0 {
			t.Fatalf("merge kept the old base or its memo (%d blocks)", blocks())
		}
		e5 := appendRows(t, m, pts[n3+30:n3+60])
		ref5 := cellIndexOf(t, pts[:n3+60], opts)
		assertSameSteps(t, "post-merge", snapshotAt(t, m, e5), ref5, tq, n3+60)
		if blocks() == 0 {
			t.Fatal("post-merge sweep stored nothing on the new base")
		}

		// A delete compacts onto a fresh base, with a fresh memo too.
		ids, _, err := m.Append(ctx, frameOf(t, pts[n3+60:]))
		if err != nil {
			t.Fatal(err)
		}
		old = bases()
		e6, err := m.Delete(ctx, ids[:10])
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(bases(), old) || blocks() != 0 {
			t.Fatalf("delete kept the old base or its memo (%d blocks)", blocks())
		}
		survivors := append(append([]vec.Vector(nil), pts[:n3+60]...), pts[n3+70:]...)
		ref6 := cellIndexOf(t, survivors, opts)
		assertSameSteps(t, "post-delete", snapshotAt(t, m, e6), ref6, tq)
		e7 := appendRows(t, m, pts[:5])
		ref7 := cellIndexOf(t, append(survivors, pts[:5]...), opts)
		assertSameSteps(t, "post-delete epoch", snapshotAt(t, m, e7), ref7, tq, len(survivors)+5)
	})
	t.Run("PartialCounts radius", testPairMemoRadiusKeyed)
}

// testPairMemoRadiusKeyed: PartialCounts receives the level and the radius
// separately, so a memoized level must never answer another radius. A
// mutable shard warmed at the ladder radius of level j must, at epoch 2,
// answer (j, r′) for r′ off the ladder exactly as an immutable shard over
// the same rows does — and still answer the ladder radius correctly after.
func testPairMemoRadiusKeyed(t *testing.T) {
	ctx := context.Background()
	d := 2
	pts := shardTestPoints(t, 23, 600, d)
	opts := shardTestOptions(d)
	n0 := 500
	cell := opts.withDefaults(d)
	lad := newRadiusLadder(cell, d, 0)
	cell.MaxRadius = lad.maxR
	all := func(n int) []int32 {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return ids
	}
	s, err := NewMutableLocalShard(ShardConfig{Points: frameOf(t, pts[:n0]), Members: all(n0), Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := NewLocalShard(ShardConfig{Points: frameOf(t, pts), Members: all(len(pts)), Cell: cell})
	if err != nil {
		t.Fatal(err)
	}

	limit := int32(len(pts))
	j := lad.top / 2
	rj := lad.radius(j)
	if _, err := s.PartialCounts(ctx, 1, j, rj, limit); err != nil {
		t.Fatal(err)
	}
	memLocal := make([]int32, len(pts)-n0)
	for i := range memLocal {
		memLocal[i] = int32(i)
	}
	ids := make([]uint64, len(pts)-n0)
	for i := range ids {
		ids[i] = uint64(n0 + i)
	}
	e2, err := s.Append(ctx, frameOf(t, pts[n0:]), memLocal, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{3 * rj, rj / 3, rj} {
		got, err := s.PartialCounts(ctx, e2, j, r, limit)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PartialCounts(ctx, EpochFrozen, j, r, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d at r=%g (ladder %g): counts diverge from an immutable shard", j, r, rj)
		}
	}
	if got := memoBlocks(newestBase(s.src)); got != 3 {
		t.Errorf("memo holds %d blocks for one level at three radii, want 3", got)
	}
}

// TestPairMemoConcurrentViews sweeps several epoch views that share one
// frozen base from concurrent goroutines — fills racing fills and hits —
// and checks every sweep against a fresh index. Run it under -race.
func TestPairMemoConcurrentViews(t *testing.T) {
	ctx := context.Background()
	d := 2
	pts := shardTestPoints(t, 29, 600, d)
	opts := shardTestOptions(d)
	n0 := 480
	mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		cuts := []int{n0}
		for c := n0 + 30; c <= len(pts); c += 30 {
			appendRows(t, m, pts[cuts[len(cuts)-1]:c])
			cuts = append(cuts, c)
		}
		ts := []int{2, 100, 300}
		want := make([][]*LStep, len(cuts))
		for ci, c := range cuts {
			ref := cellIndexOf(t, pts[:c], opts)
			for _, tt := range ts {
				l, err := ref.BuildLStep(ctx, tt)
				if err != nil {
					t.Fatal(err)
				}
				want[ci] = append(want[ci], l)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(cuts)*len(ts)*2)
		for rep := 0; rep < 2; rep++ {
			for ci := range cuts {
				for ti, tt := range ts {
					wg.Add(1)
					go func(ci, ti, tt int) {
						defer wg.Done()
						snap, err := m.Snapshot(ctx, Epoch(ci+1))
						if err != nil {
							errs <- err
							return
						}
						l, err := snap.BuildLStep(ctx, tt)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(l, want[ci][ti]) {
							errs <- fmt.Errorf("epoch %d t=%d: LStep diverged from a fresh index", ci+1, tt)
						}
					}(ci, ti, tt)
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// warmMemoSensitivity builds f as epoch 2 of a mutable index: its last five
// rows are appended onto a base over the rest, whose epoch-1 view was swept
// first at t = n_base. The compared sweep then takes every base×base block
// the first sweep reached from the memo.
func warmMemoSensitivity(sharded bool) func(t *testing.T, f *vec.Frame) BallIndex {
	return func(t *testing.T, f *vec.Frame) BallIndex {
		ctx := context.Background()
		rows := f.Rows()
		n0 := len(rows) - 5
		var m MutableBallIndex
		var err error
		if sharded {
			m, err = NewMutableShardedIndexBackends(ctx, frameOf(t, rows[:n0]), ShardedIndexOptions{
				Shards: 2, Policy: ShardMorton, Cell: sensitivityCellOpts,
			}, mutableLocalDialer)
		} else {
			m, err = NewMutableCellIndexFrame(frameOf(t, rows[:n0]), sensitivityCellOpts)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if _, err := snapshotAt(t, m, m.Epoch()).BuildLStep(ctx, n0); err != nil {
			t.Fatal(err)
		}
		return snapshotAt(t, m, appendRows(t, m, rows[n0:]))
	}
}
