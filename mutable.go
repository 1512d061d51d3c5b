package privcluster

import (
	"context"
	"errors"
	"fmt"

	"privcluster/internal/geometry"
)

// ErrClosed is returned by every query and mutation on a Dataset handle
// after Close; errors.Is(err, ErrClosed) identifies it.
var ErrClosed = errors.New("privcluster: dataset handle is closed")

// ErrEpochRetired is returned when QueryOptions.AtEpoch pins an epoch a
// delete has retired (and whose entry the handle no longer caches), or one
// that does not exist yet. Wrapped errors carry the epoch; errors.Is(err,
// ErrEpochRetired) identifies them.
var ErrEpochRetired = errors.New("privcluster: epoch retired or unknown")

// maxCachedEpochs bounds a mutable handle's per-epoch entry cache
// (FIFO-evicted; an evicted epoch is rebuilt on its next pin).
const maxCachedEpochs = 4

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
	}
	return ids, uint64(epoch), nil
}

// Delete removes points by id from a mutable handle, returning the new
// epoch. Every id must exist exactly once, and a delete may not empty the
// dataset (or any shard server of a Placement handle). Deleting retires older
// epochs: queries already pinned keep their snapshots, but new pins of a
// pre-delete epoch fail with ErrEpochRetired unless the handle's entry for
// it is still cached, at every dimension and for every query kind (they
// share one entry per epoch). Like Append, deletion spends no budget.
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
	ds.compacted = epoch
	if ds.dim == 1 {
		// Compact into fresh slices: entries of older epochs keep the
		// prefixes they captured.
		gone := make(map[uint64]struct{}, len(ids))
		for _, id := range ids {
			gone[id] = struct{}{}
		}
		vals := make([]float64, 0, len(ds.rawVals)-len(ids))
		rows := make([]uint64, 0, cap(vals))
		for i, id := range ds.rowIDs {
			if _, dead := gone[id]; !dead {
				vals = append(vals, ds.rawVals[i])
				rows = append(rows, id)
			}
		}
		ds.rawVals, ds.rowIDs = vals, rows
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

// pinEpoch resolves atEpoch (0 = current) to the epoch's cached entry,
// building it exactly once per epoch even under concurrent queries: the
// snapshot every query kind runs on and, on a 1-D handle, the prefix of
// the value mirror its N rows name. The build draws no randomness, so a
// cached entry releases bit-identical seeded results to a fresh Open on the
// same rows. An immutable handle has no epoch entries: it gets nil, and a
// nonzero atEpoch is refused.
func (ds *Dataset) pinEpoch(atEpoch uint64) (*indexEntry, error) {
	if ds.mut == nil {
		if atEpoch != 0 {
			return nil, fmt.Errorf("privcluster: AtEpoch=%d on an immutable dataset (open with DatasetOptions.Mutable)", atEpoch)
		}
		return nil, nil
	}
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
		if err == nil {
			// A later delete retires e at every d; else 1-D mirrors hold e's prefix.
			ds.mutMu.Lock()
			if e < ds.compacted {
				err = geometry.ErrEpochRetired
			} else if ds.dim == 1 {
				n := ix.Frame().N()
				ent.vals = ds.rawVals[:n:n]
			}
			ds.mutMu.Unlock()
		}
		if errors.Is(err, geometry.ErrEpochRetired) {
			err = fmt.Errorf("%w: epoch %d (retired by a delete)", ErrEpochRetired, e)
		}
		if err != nil {
			ent.err = err
			return
		}
		ent.ix = newCachedIndex(ix)
	})
	return ent, ent.err
}
