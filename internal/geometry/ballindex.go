package geometry

import (
	"context"

	"privcluster/internal/vec"
)

// BallIndex is the seam Algorithm GoodRadius runs on. The mechanism reads
// exactly one statistic of the dataset: the capped-average score L(r, S)
// of Section 3.1 (sensitivity 2, Lemma 4.5), materialized as a step
// function of the radius by BuildLStep. N and Frame expose the indexed
// points to the stages that iterate them (GoodCenter's SVT loop).
//
// Three implementations exist:
//
//   - DistanceIndex materializes all n² pairwise distances and builds the
//     exact L. Memory is Θ(n²) float64s, so it is only viable for n in the
//     low thousands. It also carries the exact, non-private ball queries
//     (B_r(x_i) counts, the t-th distance, the "known fact 3"
//     2-approximation) that baselines and experiments use; those are
//     methods of the concrete type, not of this interface.
//   - CellIndex buckets the points into one flat sorted cell level per
//     radius scale and builds an estimate L̂ over a fixed geometric radius
//     ladder, within the sandwich bounds documented on CellIndex. Memory is
//     O(n) per built ladder level, on top of the O(n·d) points.
//   - ShardedIndex partitions the points into S shards — local CellIndexes
//     or ShardBackends reached over a transport — and sums per-shard capped
//     partial counts. Its L̂ is bit-identical to a CellIndex over the same
//     points.
//
// Implementations must be safe for concurrent readers.
type BallIndex interface {
	// N returns the number of indexed points.
	N() int
	// Frame returns the indexed point store (not a copy): the flat strided
	// frame every sweep runs over. Callers must treat it as read-only.
	Frame() *vec.Frame
	// BuildLStep materializes the capped-average score L(·, S) of
	// Section 3.1 as a step function of the radius. It is the dominant
	// per-query preprocessing cost at scale, so it honors ctx: a cancelled
	// context aborts the sweep promptly and returns ctx.Err(). A nil ctx
	// means "never cancel".
	BuildLStep(ctx context.Context, t int) (*LStep, error)
}

// The three backends must keep satisfying the interface.
var (
	_ BallIndex = (*DistanceIndex)(nil)
	_ BallIndex = (*CellIndex)(nil)
	_ BallIndex = (*ShardedIndex)(nil)
)
