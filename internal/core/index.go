package core

import (
	"context"
	"fmt"

	"privcluster/internal/geometry"
	"privcluster/internal/transport"
	"privcluster/internal/vec"
)

// IndexPolicy selects the geometry.BallIndex backend the pipeline
// preprocesses the dataset with.
type IndexPolicy int

const (
	// IndexAuto picks the exact index up to ExactIndexMaxN points and the
	// scalable cell index beyond — exact answers while the Θ(n²) memory is
	// cheap, graceful scaling when it is not.
	IndexAuto IndexPolicy = iota
	// IndexExact forces the Θ(n²) DistanceIndex (exact L, exact counts).
	IndexExact
	// IndexScalable forces the O(n·d) CellIndex (approximate L within the
	// bounds documented on geometry.CellIndex).
	IndexScalable
)

// ExactIndexMaxN is IndexAuto's cutover point: the largest n for which the
// exact index's Θ(n²) distance matrix (≈ 8n² bytes) is still considered
// cheap. 4096 points ≈ 134 MB.
const ExactIndexMaxN = 4096

// NewBallIndexFrame builds the dataset index the pipeline's radius stage
// runs on, honoring the policy: one in-process index, the exact one at
// n ≤ ExactIndexMaxN under IndexAuto and the scalable CellIndex beyond.
// The grid supplies the scalable index's radius ladder bounds (resolution
// floor RadiusUnit, domain diameter MaxDistance) so its approximation
// error aligns with the radius grid GoodRadius already searches. workers
// bounds the scalable index's worker pool (0 = GOMAXPROCS) — the same knob
// Profile.Workers feeds. Data partitions exist only on shard servers (see
// NewReplicatedBallIndexFrame). The frame is shared, not copied: callers
// must treat it as read-only afterwards.
func NewBallIndexFrame(points *vec.Frame, grid geometry.Grid, pol IndexPolicy, workers int) (geometry.BallIndex, error) {
	switch pol {
	case IndexAuto, IndexExact, IndexScalable:
	default:
		return nil, fmt.Errorf("core: unknown index policy %d", pol)
	}
	if pol == IndexExact || (pol == IndexAuto && points.N() <= ExactIndexMaxN) {
		return geometry.NewDistanceIndexFrame(points)
	}
	return geometry.NewCellIndexFrame(points, cellOptions(grid, workers))
}

// cellOptions returns the cell-index options every scalable backend
// builds with: the radius ladder spans the grid's resolution floor to its
// domain diameter, with a worker pool of the given width.
func cellOptions(grid geometry.Grid, workers int) geometry.CellIndexOptions {
	return geometry.CellIndexOptions{
		MinRadius: grid.RadiusUnit(),
		MaxRadius: grid.MaxDistance(),
		Workers:   workers,
	}
}

// NewMutableBallIndexFrame builds the streaming-ingestion counterpart of
// NewBallIndexFrame: one in-process MutableCellIndex whose epochs snapshot
// to BallIndexes bit-identical to a fresh build on that epoch's point set.
// Mutability presumes the scalable backend (the exact index's Θ(n²) matrix
// has no incremental form), so the policy knob does not apply. The frame
// is shared until the first mutation takes ownership of a copy.
func NewMutableBallIndexFrame(points *vec.Frame, grid geometry.Grid, workers int) (geometry.MutableBallIndex, error) {
	return geometry.NewMutableCellIndexFrame(points, cellOptions(grid, workers))
}

// NewRemoteMutableBallIndexFrame is NewMutableBallIndexFrame with every
// shard living behind a remote epoch session: one shard per address,
// dialed with opts (forced Mutable) so appends and deletes advance the
// remote shards in lockstep. Remote mutable sessions are
// connection-scoped — a broken connection permanently fails that shard's
// backend and the coordinator marks the index broken (see
// transport.Options.Mutable) — so callers should treat transport failures
// as fatal to the handle.
func NewRemoteMutableBallIndexFrame(ctx context.Context, points *vec.Frame, grid geometry.Grid, workers int, addrs []string, opts transport.Options) (geometry.MutableBallIndex, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("core: remote mutable ball index needs at least one shard address")
	}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("core: remote shard address %d is empty", i)
		}
	}
	return geometry.NewMutableShardedIndexBackends(ctx, points, geometry.ShardedIndexOptions{
		Shards: len(addrs),
		Cell:   cellOptions(grid, workers),
	}, transport.MutableShardDialer(addrs, opts))
}

// NewReplicatedBallIndexFrame builds the scalable sharded index with every
// shard served over the wire protocol: shard partition s (a Z-order
// partition of the points, clamped to at most n shards; see
// geometry.NewShardedIndexBackends) is served by the replica set
// parts[s], with failover, optional hedging
// and background health probing per ropts
// (transport.ReplicatedShardDialer). A single-replica partition is one
// plain connection. The exact-vs-scalable policy does not apply, and
// releases are bit-identical to NewBallIndexFrame's under the same seed
// regardless of which replica answers each call — every replica of a
// partition serves the same pure-read shard config, and the ShardedIndex
// equivalence contract survives the wire. ctx governs dialing and the
// handshake round trips; the caller owns the returned index's connections
// (Close releases them). The frame is shared, not copied.
func NewReplicatedBallIndexFrame(ctx context.Context, points *vec.Frame, grid geometry.Grid, workers int, parts [][]string, ropts transport.ReplicaOptions) (geometry.BallIndex, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: replicated ball index needs at least one shard partition")
	}
	for p, addrs := range parts {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("core: shard partition %d has no replicas", p)
		}
		for i, a := range addrs {
			if a == "" {
				return nil, fmt.Errorf("core: partition %d replica address %d is empty", p, i)
			}
		}
	}
	return geometry.NewShardedIndexBackends(ctx, points, geometry.ShardedIndexOptions{
		Shards: len(parts),
		Cell:   cellOptions(grid, workers),
	}, transport.ReplicatedShardDialer(parts, ropts))
}
