package core

import (
	"context"
	"fmt"
	"runtime"

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
	// bounds documented on geometry.CellIndex), sharded per the Shards
	// knob.
	IndexScalable
)

// ExactIndexMaxN is IndexAuto's cutover point: the largest n for which the
// exact index's Θ(n²) distance matrix (≈ 8n² bytes) is still considered
// cheap. 4096 points ≈ 134 MB.
const ExactIndexMaxN = 4096

// ShardAutoMinN is the dataset size at which the automatic shard policy
// (Shards == 0) starts sharding the scalable index: below it a single
// CellIndex wins (the parallel worker pools already saturate small
// inputs), at or above it the index build fans out over GOMAXPROCS
// shards. Sharding never changes results — per-shard counts compose by
// exact summation (see geometry.ShardedIndex) — so the cutover is a pure
// performance rule.
const ShardAutoMinN = 100_000

// resolveShards returns the concrete shard count the scalable index is
// split into for the requested value at dataset size n: 0 (automatic)
// resolves to GOMAXPROCS at n ≥ ShardAutoMinN and to 1 below; explicit
// requests are clamped to [1, n], so no shard is ever empty.
func resolveShards(shards, n int) int {
	if shards == 0 {
		if n < ShardAutoMinN {
			return 1
		}
		shards = runtime.GOMAXPROCS(0)
	}
	if shards < 1 {
		return 1
	}
	if shards > n {
		return n
	}
	return shards
}

// NewBallIndexFrame builds the dataset index the pipeline's radius stage
// runs on, honoring the policy. The grid supplies the scalable index's
// radius ladder bounds (resolution floor RadiusUnit, domain diameter
// MaxDistance) so its approximation error aligns with the radius grid
// GoodRadius already searches. workers bounds the scalable index's worker
// pool (0 = GOMAXPROCS) — the same knob Profile.Workers feeds. IndexAuto
// builds the exact index at n ≤ ExactIndexMaxN and the scalable one
// beyond. shards splits the scalable index into resolveShards(shards, n)
// Z-order partitions whose cell indexes build in parallel and answer by
// exact partial sums (results bit-identical to the unsharded index). ctx
// cancels a sharded build in flight; a nil ctx means "never cancel". The
// frame is shared, not copied: callers must treat it as read-only
// afterwards.
func NewBallIndexFrame(ctx context.Context, points *vec.Frame, grid geometry.Grid, pol IndexPolicy, workers, shards int) (geometry.BallIndex, error) {
	switch pol {
	case IndexAuto, IndexExact, IndexScalable:
	default:
		return nil, fmt.Errorf("core: unknown index policy %d", pol)
	}
	n := points.N()
	if pol == IndexExact || (pol == IndexAuto && n <= ExactIndexMaxN) {
		return geometry.NewDistanceIndexFrame(points)
	}
	cell := cellOptions(grid, workers)
	if s := resolveShards(shards, n); s > 1 {
		return geometry.NewShardedIndexFrame(ctx, points, geometry.ShardedIndexOptions{Shards: s, Cell: cell})
	}
	return geometry.NewCellIndexFrame(points, cell)
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
// NewBallIndexFrame: a mutable index whose epochs snapshot to BallIndexes
// bit-identical to a fresh build on that epoch's point set. Mutability
// presumes the scalable backend (the exact index's Θ(n²) matrix has no
// incremental form), so the policy knob does not apply; shards resolve by
// the same rule as NewBallIndexFrame, with in-process shard backends. The
// frame is shared until the first mutation takes ownership of a copy.
func NewMutableBallIndexFrame(ctx context.Context, points *vec.Frame, grid geometry.Grid, workers, shards int) (geometry.MutableBallIndex, error) {
	cell := cellOptions(grid, workers)
	if s := resolveShards(shards, points.N()); s > 1 {
		return geometry.NewMutableShardedIndexBackends(ctx, points, geometry.ShardedIndexOptions{
			Shards: s,
			Cell:   cell,
		}, func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.MutableShardBackend, error) {
			return geometry.NewMutableLocalShard(cfg)
		})
	}
	return geometry.NewMutableCellIndexFrame(points, cell)
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
// shard served over the wire protocol: shard partition s (the same
// Z-order partition NewBallIndexFrame uses, clamped to at most n shards)
// is served by the replica set parts[s], with failover, optional hedging
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
