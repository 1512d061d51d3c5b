package geometry

import (
	"context"
	"fmt"
	"slices"

	"privcluster/internal/vec"
)

// ShardBackend is the narrow seam between ShardedIndex and one data
// partition: a shard holds a subset of the indexed points and answers the
// two bulk reads BuildLStep decomposes into — its capped center-rule
// contributions to the ball counts around every global point at one ladder
// level (PartialCounts), and its contribution to the global duplicate
// table (DupCounts). Both are pure reads over the shard's points, and
// per-shard answers compose into global ones by plain (or saturating)
// addition, which is what makes the ShardedIndex equivalence contract
// transport-agnostic: an implementation may run in-process (LocalShard) or
// on another machine behind an RPC client, and releases stay
// bit-identical.
//
// Bulk methods take the batch implicitly: the global point set is fixed
// per snapshot (ShardConfig.Points at construction, grown by appends on
// mutable backends), so PartialCounts and DupCounts answer for every
// global point of the pinned snapshot in one call — one network round trip
// per call for a remote implementation, never one per point.
//
// Every bulk query names the snapshot it must be answered from: an epoch.
// Immutable backends serve exactly one snapshot, EpochFrozen; mutable ones
// (MutableShardBackend) serve the retained epoch range. Threading the
// epoch through the seam is what lets all shards of one query answer from
// the same snapshot regardless of concurrent mutation or merge timing.
//
// Implementations must be safe for sequential reuse; ShardedIndex never
// issues concurrent calls to the same backend, but distinct backends are
// queried concurrently.
type ShardBackend interface {
	// NPoints returns the number of points the shard currently holds.
	NPoints() int
	// PartialCounts fills out with this shard's contribution to the capped
	// within-r counts around every global point of the epoch's snapshot,
	// at ladder level j: slot i holds min(|{y ∈ shard : y contributes to
	// B̂_r(points[i])}|, limit), with boundary cells resolved by the center
	// rule of the L estimators (see CellIndex). Summing the per-shard
	// vectors with saturation at limit reproduces the unsharded capped
	// counts bit for bit (capping commutes — see ShardedIndex). out is the
	// caller's, reused across rounds: len(out) must be the snapshot's row
	// count, and only a successful call defines its contents.
	PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error
	// DupCounts returns, for every global point of the epoch's snapshot,
	// how many shard points are bitwise identical to it — this shard's
	// contribution to the global duplicate table (the exact radius-0
	// counts). It runs once per epoch, so it returns a fresh slice.
	DupCounts(ctx context.Context, epoch Epoch) ([]int32, error)
	// Close releases the backend's resources (network connections for
	// remote implementations; a no-op locally).
	Close() error
}

// ShardConfig is everything a backend needs to serve one shard of a
// ShardedIndex: the full global point set (the query centers of the bulk
// passes), which of those points the shard holds, and the cell options
// every shard must share. It is the payload a remote transport ships at
// handshake.
type ShardConfig struct {
	// Points is the full global point set, in global order, as a flat
	// frame — the same storage the transport ships in one copy at
	// handshake. Every coordinate must be finite.
	Points *vec.Frame
	// Members lists the global ids of the points this shard holds.
	Members []int32
	// Cell configures the shard's cell index. It must be the defaulted
	// global options with MaxRadius pinned to the global ladder top, so
	// every shard — and the source-cell structure over the global points —
	// resolves each radius at the same ladder level with the same cell
	// side (the shared-ladder invariant; NewShardedIndexBackends pins it).
	Cell CellIndexOptions
}

// validate rejects configs that cannot describe a shard, including points
// with a non-finite coordinate (ErrOutOfDomain).
func (cfg ShardConfig) validate() error {
	if cfg.Points == nil || cfg.Points.N() == 0 {
		return fmt.Errorf("geometry: shard config with no global points")
	}
	n := cfg.Points.N()
	if len(cfg.Members) == 0 {
		return fmt.Errorf("geometry: shard config with no member points")
	}
	for _, g := range cfg.Members {
		if g < 0 || int(g) >= n {
			return fmt.Errorf("geometry: member id %d out of [0, %d)", g, n)
		}
	}
	return checkFinite(cfg.Points)
}

// LocalShard is the in-process ShardBackend: the CellIndex machinery over
// one shard's subset, answering the partial queries the ShardedIndex sums.
// It is what the shard-server daemon runs behind the wire protocol, and
// what loopback tests plug directly into NewShardedIndexBackends to prove
// the generic summation path equivalent without any transport.
//
// Internally it keeps two cell structures: the member index over the
// shard's points (whose cells are classified against query balls) and a
// source index over the global points (whose rows group the query centers
// so the row join is paid per source row, not per center — the same
// amortization a CellIndex gets from its own levels). Both are
// pinned to the shared ladder, and the source grouping never affects
// results: a member cell out of a source cell's reach contributes nothing
// to its points. The source group also holds every global point's
// duplicate count and isolation bound against the shard's points (12n
// bytes), so PartialCounts skips the row join for isolated points as a
// CellIndex does (see its doc): the fine levels cost O(n).
type LocalShard struct {
	cfg    ShardConfig
	groups [2]cellGroup // the source structure over the global points, then the member index
}

// NewLocalShard builds the in-process backend for one shard. The config's
// cell options must already be defaulted and ladder-pinned (ShardConfig).
func NewLocalShard(cfg ShardConfig) (*LocalShard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cell := cfg.Cell.withDefaults(cfg.Points.Dim())
	// Neither structure keeps a duplicate table: the shard's table is
	// built against the global centers (a per-shard CellIndex table could
	// not see them), and the source index only ever serves cell levels.
	cell.skipDupTable = true
	members, err := NewCellIndexFrame(cfg.Points.Gather(cfg.Members), cell)
	if err != nil {
		return nil, err
	}
	src := cellGroup{}
	if src.ix, err = NewCellIndexFrame(cfg.Points, cell); err != nil {
		return nil, err
	}
	cfg.Cell = cell
	src.dups, src.isoSq = dupTable(cfg.Points, cfg.Points, cfg.Members, true)
	return &LocalShard{cfg: cfg, groups: [2]cellGroup{src, {ix: members}}}, nil
}

// NPoints returns the number of points the shard holds.
func (s *LocalShard) NPoints() int { return s.groups[1].ix.N() }

// Close is a no-op: the shard holds no external resources.
func (s *LocalShard) Close() error { return nil }

// errFrozenEpoch rejects a pinned-epoch query against an immutable shard:
// it serves exactly one snapshot, the one fixed at construction.
func errFrozenEpoch(epoch Epoch) error {
	return fmt.Errorf("geometry: immutable shard queried at epoch %d (only the frozen snapshot exists)", epoch)
}

// PartialCounts counts the shard's member contributions around every
// global point at ladder level j, capped at limit, into out via the shared
// crossCellCounts engine (the source structure over the global points as
// the one source group, the member index as the one member group). A
// cancelled ctx aborts it with ctx.Err() and no leaked goroutines.
func (s *LocalShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	if epoch != EpochFrozen {
		return errFrozenEpoch(epoch)
	}
	if len(out) != s.cfg.Points.N() {
		return fmt.Errorf("geometry: %d count slots for %d points", len(out), s.cfg.Points.N())
	}
	clear(out)
	return crossCellCounts(ctxOrBackground(ctx), s.cfg.Cell.Workers, s.groups[:1], s.groups[1:], j, r, limit, out)
}

// DupCounts returns, for every global point, the number of shard points
// bitwise identical to it: a copy of the table built with the shard.
func (s *LocalShard) DupCounts(ctx context.Context, epoch Epoch) ([]int32, error) {
	if epoch != EpochFrozen {
		return nil, errFrozenEpoch(epoch)
	}
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return nil, err
	}
	return slices.Clone(s.groups[0].dups), nil
}
