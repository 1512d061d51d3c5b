package privcluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"privcluster/internal/geometry"
)

// ErrClosed is returned by every query and mutation on a Dataset handle
// after Close; errors.Is(err, ErrClosed) identifies it.
var ErrClosed = errors.New("privcluster: dataset handle is closed")

// ErrEpochRetired is returned when QueryOptions.AtEpoch pins an epoch a
// delete has retired (and whose snapshot is no longer cached), or one that
// does not exist yet. Wrapped errors carry the epoch; errors.Is(err,
// ErrEpochRetired) identifies them.
var ErrEpochRetired = errors.New("privcluster: epoch retired or unknown")

// maxCachedEpochValues bounds the per-epoch sorted-value copies a 1-D
// mutable handle keeps for InteriorPoint (FIFO-evicted; re-cut on demand).
const maxCachedEpochValues = 8

// maxCachedEpochs bounds a mutable handle's per-epoch snapshot cache
// (FIFO-evicted; an evicted epoch is rebuilt on its next pin).
const maxCachedEpochs = 4

// maxValsHistory bounds how many epochs back the 1-D value mirror can cut
// an InteriorPoint snapshot for — the same depth the geometry layer keeps
// its append bookkeeping.
const maxValsHistory = 4096

// errNotMutable refuses mutations on a handle opened without
// DatasetOptions.Mutable.
func errNotMutable(op string) error {
	return fmt.Errorf("privcluster: %s on an immutable dataset (open with DatasetOptions.Mutable)", op)
}

// Epoch returns the handle's current epoch: 1 at Open, advancing by
// exactly one per successful Append or Delete. Immutable handles report 0.
func (ds *Dataset) Epoch() uint64 {
	if ds.mut == nil {
		return 0
	}
	return uint64(ds.mut.Epoch())
}

// Append adds points to a mutable handle, returning their assigned stable
// ids (usable with Delete) and the new epoch. The points are domain-mapped
// and grid-quantized exactly as Open's were, so a snapshot of the new
// epoch answers bit-identically to a fresh Open on the concatenated point
// set. Mutation spends no privacy budget: the mechanisms' sensitivity
// analysis is per-release on whatever the pinned epoch holds, and only
// releases spend. Queries already in flight are unaffected — they hold
// their own epoch's snapshot.
func (ds *Dataset) Append(ctx context.Context, points []Point) ([]uint64, uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ds.checkOpen(); err != nil {
		return nil, 0, err
	}
	if ds.mut == nil {
		return nil, 0, errNotMutable("Append")
	}
	if len(points) == 0 {
		return nil, 0, fmt.Errorf("privcluster: Append of no points")
	}
	frame, raw, err := ds.opts.prepare(points, ds.grid)
	if err != nil {
		return nil, 0, err
	}
	ds.mutMu.Lock()
	defer ds.mutMu.Unlock()
	ids, epoch, err := ds.mut.Append(ctx, frame)
	if err != nil {
		return nil, 0, err
	}
	if raw != nil {
		ds.rawVals = append(ds.rawVals, raw...)
		ds.rowIDs = append(ds.rowIDs, ids...)
		ds.recordValsEpochLocked(uint64(epoch))
	}
	return ids, uint64(epoch), nil
}

// Delete removes points by id from a mutable handle, returning the new
// epoch. Every id must exist exactly once, and a delete may not empty the
// dataset (or any shard server of a Placement handle). Deleting retires older
// epochs: queries already pinned keep their snapshots, but new pins of a
// pre-delete epoch fail with ErrEpochRetired unless the snapshot is still
// cached. Like Append, deletion spends no budget.
func (ds *Dataset) Delete(ctx context.Context, ids []uint64) (uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ds.checkOpen(); err != nil {
		return 0, err
	}
	if ds.mut == nil {
		return 0, errNotMutable("Delete")
	}
	ds.mutMu.Lock()
	defer ds.mutMu.Unlock()
	epoch, err := ds.mut.Delete(ctx, ids)
	if err != nil {
		return 0, err
	}
	if ds.dim == 1 {
		gone := make(map[uint64]struct{}, len(ids))
		for _, id := range ids {
			gone[id] = struct{}{}
		}
		keep := 0
		for i, id := range ds.rowIDs {
			if _, dead := gone[id]; dead {
				continue
			}
			ds.rawVals[keep] = ds.rawVals[i]
			ds.rowIDs[keep] = id
			keep++
		}
		ds.rawVals = ds.rawVals[:keep]
		ds.rowIDs = ds.rowIDs[:keep]
		// The mirror history restarts at the delete epoch: older cuts are
		// no longer derivable from the compacted arrays.
		ds.valsAt = map[uint64]int{uint64(epoch): keep}
		ds.valsAtOrder = append(ds.valsAtOrder[:0], uint64(epoch))
		ds.valsCache = make(map[uint64][]float64)
		ds.valsCacheOrder = nil
	}
	return uint64(epoch), nil
}

// Merge folds the mutable index's append deltas into its base structures —
// a background cost knob, not a semantic one: answers at every epoch are
// identical before and after. The handle also merges automatically once
// enough delta rows accumulate.
func (ds *Dataset) Merge(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ds.checkOpen(); err != nil {
		return err
	}
	if ds.mut == nil {
		return errNotMutable("Merge")
	}
	return ds.mut.Merge(ctx)
}

// recordValsEpochLocked notes the 1-D mirror's length at a fresh epoch,
// FIFO-bounding the history. Caller holds mutMu.
func (ds *Dataset) recordValsEpochLocked(epoch uint64) {
	ds.valsAt[epoch] = len(ds.rawVals)
	ds.valsAtOrder = append(ds.valsAtOrder, epoch)
	if len(ds.valsAtOrder) > maxValsHistory {
		delete(ds.valsAt, ds.valsAtOrder[0])
		ds.valsAtOrder = ds.valsAtOrder[1:]
	}
}

// pinEpoch resolves atEpoch (0 = current) and returns the cached snapshot
// for it, building it exactly once per epoch even under concurrent
// queries. The snapshot build draws no randomness, so a cached snapshot
// releases bit-identical seeded results to a fresh Open on the same rows.
func (ds *Dataset) pinEpoch(atEpoch uint64) (geometry.BallIndex, error) {
	cur := ds.mut.Epoch()
	e := geometry.Epoch(atEpoch)
	if e == geometry.EpochFrozen {
		e = cur
	} else if e > cur {
		// Not cached: the epoch may exist later, and pinning it then must
		// succeed.
		return nil, fmt.Errorf("%w: AtEpoch=%d is ahead of the current epoch %d", ErrEpochRetired, atEpoch, cur)
	}
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil, ErrClosed
	}
	ent, ok := ds.epochs[e]
	if !ok {
		ent = &indexEntry{}
		ds.epochs[e] = ent
		ds.epochOrder = append(ds.epochOrder, e)
		if len(ds.epochOrder) > maxCachedEpochs {
			// In-flight queries keep their entry reference; dropping the
			// map slot only forces the next pin of that epoch to rebuild
			// (or fail, if a delete has since retired it).
			delete(ds.epochs, ds.epochOrder[0])
			ds.epochOrder = ds.epochOrder[1:]
		}
	}
	ds.mu.Unlock()
	ent.once.Do(func() {
		// Background context: the snapshot is shared by every later query
		// of this epoch, so one caller's deadline must not poison it.
		ix, err := ds.mut.Snapshot(context.Background(), e)
		if err != nil {
			if errors.Is(err, geometry.ErrEpochRetired) {
				err = fmt.Errorf("%w: epoch %d (retired by a delete)", ErrEpochRetired, e)
			}
			ent.err = err
			return
		}
		ent.ix = newCachedIndex(ix)
	})
	return ent.ix, ent.err
}

// epochValues returns the sorted raw values of the pinned epoch — what
// InteriorPoint runs on. Cuts are cached per epoch (FIFO-bounded); a cut
// of the epoch-e prefix of the insertion-ordered mirror holds exactly the
// multiset a fresh Open on that epoch's points would sort.
func (ds *Dataset) epochValues(atEpoch uint64) ([]float64, error) {
	ds.mutMu.Lock()
	defer ds.mutMu.Unlock()
	e := atEpoch
	if e == 0 {
		e = uint64(ds.mut.Epoch())
	}
	if v, ok := ds.valsCache[e]; ok {
		return v, nil
	}
	n, ok := ds.valsAt[e]
	if !ok {
		return nil, fmt.Errorf("%w: epoch %d has no retained raw values", ErrEpochRetired, e)
	}
	v := append([]float64(nil), ds.rawVals[:n]...)
	sort.Float64s(v)
	ds.valsCache[e] = v
	ds.valsCacheOrder = append(ds.valsCacheOrder, e)
	if len(ds.valsCacheOrder) > maxCachedEpochValues {
		delete(ds.valsCache, ds.valsCacheOrder[0])
		ds.valsCacheOrder = ds.valsCacheOrder[1:]
	}
	return v, nil
}
