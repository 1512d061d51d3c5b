package geometry

import (
	"context"
	"fmt"
	"slices"

	"privcluster/internal/vec"
)

// ShardBackend is the narrow seam between ShardedIndex and one data
// partition: a shard owns a subset of the rows and answers, for its owned
// rows only, the two bulk reads BuildLStep decomposes into — their capped
// center-rule ball counts at one ladder level (PartialCounts) and their
// duplicate counts (DupCounts), both counted against every row. Each slot
// is the in-process count, what a CellIndex over all the rows computes for
// that row, and the coordinator scatters the answers into global order,
// each global slot written by exactly one shard. That makes the
// ShardedIndex equivalence contract transport-agnostic: an implementation
// may run in-process (LocalShard) or behind an RPC client, and releases
// stay bit-identical.
//
// Bulk methods take the batch implicitly: the owned rows are fixed per
// snapshot (ShardConfig.Owned, grown by appends on mutable backends), so
// one call — one network round trip for a remote implementation — answers
// every owned row of the pinned snapshot, slot k its k-th owned row in
// ascending global order.
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
	// NPoints returns the number of rows the shard currently owns.
	NPoints() int
	// PartialCounts fills out with the capped within-r counts around every
	// owned row of the epoch's snapshot at ladder level j: slot k holds
	// min(|{rows y of the snapshot contributing to B̂_r(x_k)}|, limit), with
	// boundary cells resolved by the center rule of the L estimators (see
	// CellIndex). out is the caller's, reused across rounds: len(out) must
	// be the snapshot's owned-row count, and only a successful call defines
	// its contents.
	PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error
	// DupCounts returns, for every owned row of the epoch's snapshot, how
	// many of its rows are bitwise identical to it (the exact radius-0
	// counts). It runs once per epoch, so it returns a fresh slice.
	DupCounts(ctx context.Context, epoch Epoch) ([]int32, error)
	// Close releases the backend's resources (network connections for
	// remote implementations; a no-op locally).
	Close() error
}

// ShardConfig is everything a backend needs to serve one shard of a
// ShardedIndex: the full global point set (the member side of every count),
// which of those points the shard owns (the rows it answers for), and the
// cell options every shard must share. It is the payload a remote
// transport ships at handshake.
type ShardConfig struct {
	// Points is the full global point set, in global order, as a flat
	// frame — the same storage the transport ships in one copy at
	// handshake. Every coordinate must be finite.
	Points *vec.Frame
	// Owned lists the global ids of the rows this shard answers for,
	// strictly ascending: slot k of every bulk answer is row Owned[k].
	Owned []int32
	// Cell configures the shard's cell indexes. It must be the defaulted
	// global options with MaxRadius pinned to the global ladder top, so
	// every shard resolves each radius at the same ladder level with the
	// same cell side (the shared-ladder invariant; NewShardedIndexBackends
	// pins it).
	Cell CellIndexOptions
}

// validate rejects configs that cannot describe a shard, including points
// with a non-finite coordinate (ErrOutOfDomain).
func (cfg ShardConfig) validate() error {
	if cfg.Points == nil || cfg.Points.N() == 0 {
		return fmt.Errorf("geometry: shard config with no global points")
	}
	n := cfg.Points.N()
	if len(cfg.Owned) == 0 {
		return fmt.Errorf("geometry: shard config with no owned rows")
	}
	for k, g := range cfg.Owned {
		if g < 0 || int(g) >= n {
			return fmt.Errorf("geometry: owned id %d out of [0, %d)", g, n)
		}
		if k > 0 && g <= cfg.Owned[k-1] {
			return fmt.Errorf("geometry: owned ids not strictly ascending at %d", g)
		}
	}
	return checkFinite(cfg.Points)
}

// LocalShard is the in-process ShardBackend: the CellIndex machinery over
// one shard's owned rows. It is what the shard-server daemon runs behind
// the wire protocol, and what loopback tests plug directly into
// NewShardedIndexBackends to prove the scatter path equivalent without any
// transport.
//
// Internally it keeps two cell structures, both pinned to the shared
// ladder: the member index over every global row (whose cells are
// classified against query balls) and a source index over the owned rows
// (whose rows group the query centers so the row join is paid per source
// row, not per center — the same amortization a CellIndex gets from its
// own levels). The source group also holds every owned row's duplicate
// count and isolation bound against all rows (12 bytes per owned row), so
// PartialCounts skips the row join for isolated rows as a CellIndex does
// (see its doc): the fine levels cost O(n/S).
type LocalShard struct {
	cfg    ShardConfig
	groups [2]cellGroup // the source structure over the owned rows, then the member index over all rows
}

// NewLocalShard builds the in-process backend for one shard. The config's
// cell options must already be defaulted and ladder-pinned (ShardConfig).
func NewLocalShard(cfg ShardConfig) (*LocalShard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cell := cfg.Cell.withDefaults(cfg.Points.Dim())
	// Neither structure keeps a duplicate table: the shard's is built of its
	// owned rows against all rows, and the member index only ever serves
	// cell levels.
	cell.skipDupTable = true
	members, err := NewCellIndexFrame(cfg.Points, cell)
	if err != nil {
		return nil, err
	}
	owned := cfg.Points.Gather(cfg.Owned)
	src := cellGroup{}
	if src.ix, err = NewCellIndexFrame(owned, cell); err != nil {
		return nil, err
	}
	cfg.Cell = cell
	src.dups, src.isoSq = dupTable(owned, cfg.Points, nil, true)
	return &LocalShard{cfg: cfg, groups: [2]cellGroup{src, {ix: members}}}, nil
}

// NPoints returns the number of rows the shard owns.
func (s *LocalShard) NPoints() int { return len(s.cfg.Owned) }

// Close is a no-op: the shard holds no external resources.
func (s *LocalShard) Close() error { return nil }

// errFrozenEpoch rejects a pinned-epoch query against an immutable shard:
// it serves exactly one snapshot, the one fixed at construction.
func errFrozenEpoch(epoch Epoch) error {
	return fmt.Errorf("geometry: immutable shard queried at epoch %d (only the frozen snapshot exists)", epoch)
}

// PartialCounts counts every row's contributions around each owned row at
// ladder level j, capped at limit, into out via the shared crossCellCounts
// engine (the source structure over the owned rows as the one source group,
// the member index over all rows as the one member group). A cancelled ctx
// aborts it with ctx.Err() and no leaked goroutines.
func (s *LocalShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	if epoch != EpochFrozen {
		return errFrozenEpoch(epoch)
	}
	if len(out) != len(s.cfg.Owned) {
		return fmt.Errorf("geometry: %d count slots for %d owned rows", len(out), len(s.cfg.Owned))
	}
	clear(out)
	return crossCellCounts(ctxOrBackground(ctx), s.cfg.Cell.Workers, s.groups[:1], s.groups[1:], j, r, limit, out)
}

// DupCounts returns, for every owned row, the number of rows bitwise
// identical to it: a copy of the table built with the shard.
func (s *LocalShard) DupCounts(ctx context.Context, epoch Epoch) ([]int32, error) {
	if epoch != EpochFrozen {
		return nil, errFrozenEpoch(epoch)
	}
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return nil, err
	}
	return slices.Clone(s.groups[0].dups), nil
}
