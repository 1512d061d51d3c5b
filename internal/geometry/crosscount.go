package geometry

import (
	"context"
	"math"
	"sync"

	"privcluster/internal/obs"
)

// Base×base memo lookups by result (see crossCellCounts): "fill" counts
// blocks computed and stored, "hit" counts passes seeded from one.
var (
	statPairMemoHit = obs.Default.Counter("privcluster_pair_memo_total",
		"Frozen base-pair count memo lookups by result (hit = block reused).", "result", "hit")
	statPairMemoFill = obs.Default.Counter("privcluster_pair_memo_total",
		"Frozen base-pair count memo lookups by result (hit = block reused).", "result", "fill")
)

// cellGroup pairs one CellIndex with the mapping from its local row ids to
// slots of a global output vector (nil = identity). It is the unit of the
// generic cross-counting pass below: a plain CellIndex is one identity
// group, a sharded index contributes one group per shard, an epoch
// snapshot one group per storage generation (frozen base + delta), and the
// two compose freely — a mutable shard's pinned query is just base/delta
// source groups against base/delta member groups.
//
// On the source side gids maps a group-local point id to its out slot; on
// the member side only the cells matter (a member's contribution is a pure
// function of its own cell and the query point), so member gids are
// ignored. frozen marks a mutable index's base generation: identity-mapped,
// immutable and shared by many epoch views.
type cellGroup struct {
	ix     *CellIndex
	gids   []int32
	frozen bool
}

// pairMemo holds, on a frozen source base, the uncapped blocks its points
// receive from one member base, keyed by level and exact radius bits (j and
// r arrive separately over the wire; a block must never answer another r).
type pairMemo struct {
	mu     sync.Mutex
	mem    *CellIndex
	blocks map[[2]uint64][]int32
}

// lookupPair resolves the memo for one pass, resetting it for a new member
// base: the stored block on a hit, a fresh block to fill on a miss, neither
// unless both first groups are frozen. Returning both at once lets the
// workers capture plain values.
func lookupPair(srcs, members []cellGroup, j int, r float64) (hit, fill []int32) {
	if !srcs[0].frozen || !members[0].frozen {
		return nil, nil
	}
	p := &srcs[0].ix.pairs
	p.mu.Lock()
	if p.mem != members[0].ix {
		p.mem, p.blocks = members[0].ix, make(map[[2]uint64][]int32)
	}
	hit = p.blocks[[2]uint64{uint64(j), math.Float64bits(r)}]
	p.mu.Unlock()
	if hit != nil {
		statPairMemoHit.Inc()
		return hit, nil
	}
	return nil, make([]int32, srcs[0].ix.N())
}

// storePair keeps a filled block unless the memo moved to another member
// base meanwhile or a concurrent pass stored the same key first.
func storePair(srcs, members []cellGroup, j int, r float64, fill []int32) {
	statPairMemoFill.Inc()
	p, k := &srcs[0].ix.pairs, [2]uint64{uint64(j), math.Float64bits(r)}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mem == members[0].ix && p.blocks[k] == nil {
		p.blocks[k] = fill
	}
}

// addSaturating adds block into out elementwise, saturating at limit.
func addSaturating(out, block []int32, limit int32) {
	for i, c := range block {
		if s := out[i] + c; s < limit {
			out[i] = s
		} else {
			out[i] = limit
		}
	}
}

// crossCellCounts is the one bulk counting engine of the scalable
// indexes: it adds to out the capped within-r member contributions around
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
//
// A member's contribution depends on the two points alone, so when srcs[0]
// and members[0] are frozen their block is a pure function of the base rows.
// The source base memoizes it uncapped (pairMemo, 4·n_base bytes per swept
// level while the base lives): a hit seeds out and skips the pair, a miss
// fills a fresh block at limit MaxInt32 in this same pass, then stores it
// and folds it in. Saturating nonnegative addition is order-independent,
// so every count stays exactly min(total, limit).
//
// ctx must be non-nil: callers resolve a nil ctx with ctxOrBackground, so
// that the workers capture it by value instead of moving it to the heap.
func crossCellCounts(ctx context.Context, workers int, srcs, members []cellGroup, j int, r float64, limit int32, out []int32) error {
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
	// Materialize every group's cell level up front, inline and in one
	// backing slice: a level is built once per index and kept, so on a warm
	// index these are cache hits, and per-group build goroutines would cost
	// allocations on every pass. Source and member slices may share
	// indexes; the second lookup is a hit.
	lvs := make([]*cellLevel, len(srcs)+len(members))
	for gi, g := range srcs {
		lvs[gi] = g.ix.level(j)
	}
	for gi, g := range members {
		lvs[len(srcs)+gi] = g.ix.level(j)
	}
	srcLvs, memLvs := lvs[:len(srcs)], lvs[len(srcs):]
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

	hit, fill := lookupPair(srcs, members, j, r)
	if hit != nil {
		addSaturating(out, hit, limit)
	}

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
					dst, lim := out, limit
					if tk.src == 0 && mi == 0 {
						if hit != nil {
							continue
						}
						if fill != nil {
							dst, lim = fill, math.MaxInt32
						}
					}
				srcCells:
					for c := tk.lo; c < tk.hi; c++ {
						srcCoord := srcLv.coord(c)
						for a, x := range srcCoord {
							if x+span < mlv.lo[a] || x-span > mlv.hi[a] {
								continue srcCells
							}
						}
						mem.ix.accumulateCellCounts(mlv, srcCoord, srcLv.members(c), srcG.ix.frame, srcG.gids, r, lim, dst, sc)
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
	if err := ctx.Err(); err != nil {
		return err // a partial fill is never stored
	}
	if fill != nil {
		storePair(srcs, members, j, r, fill)
		addSaturating(out, fill, limit)
	}
	return nil
}
