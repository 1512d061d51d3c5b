package geometry

import (
	"context"
	"math"
	"sync"
)

// cellGroup pairs one CellIndex with the mapping from its local row ids to
// slots of a global output vector (nil = identity). It is the unit of the
// generic cross-counting pass below: a sharded index contributes one group
// per shard, an epoch snapshot one group per storage generation (frozen
// base + delta), and the two compose freely — a mutable shard's pinned
// query is just base/delta source groups against base/delta member groups.
//
// On the source side gids maps a group-local point id to its out slot; on
// the member side only the cells matter (a member's contribution is a pure
// function of its own cell and the query point), so member gids are
// ignored.
type cellGroup struct {
	ix   *CellIndex
	gids []int32
}

// crossCellCounts is the bulk counting engine shared by every composite
// index: it adds to out the capped within-r member contributions around
// every source point, at ladder level j, across all (source group, member
// group) pairs. All groups must be pinned to one shared radius ladder (same
// cell side at level j) — the invariant that makes the per-pair passes sum
// bit-identically to a single unsharded pass (see the ShardedIndex
// equivalence contract). A level j outside some group's ladder is an error.
//
// Source cells fan out over one worker pool shared by every group pair;
// tasks partition each source group's cells, the source groups partition
// the out slots, and a point's slot is written only by the task owning its
// source cell, so the pass is data-race free. Per (source cell, member
// group) pair an O(d) bounding-box prune skips member groups whose occupied
// cells cannot reach the cell's candidate block. A cancelled ctx aborts the
// pass with ctx.Err(): the feeder stops, the workers drain, no goroutines
// leak.
func crossCellCounts(ctx context.Context, workers int, srcs, members []cellGroup, j int, r float64, limit int32, out []int32) error {
	ctx = ctxOrBackground(ctx)
	if r < 0 || limit <= 0 || len(srcs) == 0 || len(members) == 0 {
		return nil
	}
	for _, groups := range [][]cellGroup{srcs, members} {
		for _, g := range groups {
			if err := g.ix.checkLevel(j); err != nil {
				return err
			}
		}
	}
	// Materialize every group's cell level up front, in parallel — each
	// index's lazy level cache has its own lock, so pool workers below never
	// serialize behind one another's builds. Source and member slices may
	// share indexes; the second build is a cache hit.
	srcLvs := make([]*cellLevel, len(srcs))
	memLvs := make([]*cellLevel, len(members))
	var lwg sync.WaitGroup
	for gi, g := range srcs {
		lwg.Add(1)
		go func(gi int, ix *CellIndex) {
			defer lwg.Done()
			srcLvs[gi] = ix.level(j)
		}(gi, g.ix)
	}
	for gi, g := range members {
		lwg.Add(1)
		go func(gi int, ix *CellIndex) {
			defer lwg.Done()
			memLvs[gi] = ix.level(j)
		}(gi, g.ix)
	}
	lwg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// A source cell's candidate block spans at most ⌈r/side⌉+1 cells per
	// axis beyond its own coordinates (forCandidates pads by side/2 from
	// the cell center); a member group whose occupied-cell bounding box lies
	// wholly outside that span cannot contribute and is skipped in O(d) —
	// a pure performance skip, since the pruned groups' passes would find
	// no cells anyway.
	span := int64(math.Ceil(r/srcLvs[0].side)) + 1

	nb := 0
	for _, lv := range srcLvs {
		nb += lv.cells()
	}
	if workers > nb {
		workers = nb
	}

	type task struct{ src, lo, hi int }
	const chunk = 64
	tasks := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := srcs[0].ix.getScratch()
			defer srcs[0].ix.putScratch(sc)
			for tk := range tasks {
				if ctx.Err() != nil {
					continue // drain the channel so the feeder never blocks
				}
				srcG := srcs[tk.src]
				srcLv := srcLvs[tk.src]
				// Member groups outermost, so the run cursors in sc walk one
				// member level through the whole chunk; a point's saturating
				// sum still takes its member groups in the same order.
				for mi, mem := range members {
					mlv := memLvs[mi]
				srcCells:
					for c := tk.lo; c < tk.hi; c++ {
						srcCoord := srcLv.coord(c)
						for a, x := range srcCoord {
							if x+span < mlv.lo[a] || x-span > mlv.hi[a] {
								continue srcCells
							}
						}
						mem.ix.accumulateCellCounts(mlv, srcCoord, srcLv.members(c), srcG.ix.frame, srcG.gids, r, limit, out, sc)
					}
				}
			}
		}()
	}
feed:
	for gi := range srcs {
		gnb := srcLvs[gi].cells()
		for lo := 0; lo < gnb; lo += chunk {
			if ctx.Err() != nil {
				break feed
			}
			hi := lo + chunk
			if hi > gnb {
				hi = gnb
			}
			tasks <- task{gi, lo, hi}
		}
	}
	close(tasks)
	wg.Wait()
	return ctx.Err()
}
