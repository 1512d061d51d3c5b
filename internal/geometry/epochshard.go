package geometry

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"privcluster/internal/vec"
)

// MutableShardBackend extends ShardBackend with the mutation half of the
// epoch model: appends and deletes arrive as coordinator-driven batches
// that advance the shard's epoch by exactly one, in lockstep across every
// shard of the index. Each shard keeps the full global row set as query
// sources (every appended row reaches every shard) and its member subset
// as the rows it answers for, both keyed by coordinator-assigned stable
// ids.
//
// Like the read half, mutations must not be issued concurrently to one
// backend; the coordinator serializes them.
type MutableShardBackend interface {
	ShardBackend
	// Append lands one mutation batch: rows (with their global stable ids,
	// parallel and strictly ascending) extend the shard's source set, and
	// the memberLocal indices into rows (strictly ascending) name the ones
	// that join this shard's member set (possibly none — the shard still
	// advances its epoch). Returns the new epoch.
	Append(ctx context.Context, rows *vec.Frame, memberLocal []int32, ids []uint64) (Epoch, error)
	// Delete removes the rows with the given stable ids from the source
	// set and whichever of them this shard holds from the member set, as
	// one epoch-advancing batch that retires all older epochs. Returns the
	// new epoch.
	Delete(ctx context.Context, ids []uint64) (Epoch, error)
	// Merge folds the shard's append deltas into its frozen bases — a pure
	// cost optimization, never a semantic change.
	Merge(ctx context.Context) error
}

// MutableShardDialer constructs the MutableShardBackend serving one shard
// of a MutableShardedIndex, mirroring ShardDialer.
type MutableShardDialer func(ctx context.Context, shard int, cfg ShardConfig) (MutableShardBackend, error)

// MutableLocalShard is the in-process MutableShardBackend: two row stores
// — the global source rows and the shard's member rows, both keyed by
// global stable ids — under one epoch log and one epoch chain, answering
// pinned-epoch queries from two-generation (base + delta) snapshot views.
// It is what the shard server runs behind the mutable wire sessions, and
// what loopback tests plug directly into NewMutableShardedIndexBackends.
//
// The chain serves both PartialCounts and DupCounts: a new epoch extends
// the previous one's count blocks (4·n_src bytes per swept level) and
// duplicate table through the rows appended since, instead of recounting
// either delta.
type MutableLocalShard struct{ *epochIndex }

// NewMutableLocalShard builds the in-process mutable backend for one
// shard. As with NewLocalShard, the config's cell options must be
// defaulted and ladder-pinned; the initial rows get stable ids equal to
// their global row indices (the coordinator's convention, which lets a
// remote server infer them from the OPEN payload alone). The member store
// holds its rows in ascending id order, whatever order cfg.Members lists
// them in: a member's position never reaches a count.
func NewMutableLocalShard(cfg ShardConfig) (*MutableLocalShard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src, err := newRowStore(cfg.Points, nil)
	if err != nil {
		return nil, err
	}
	members := slices.Clone(cfg.Members)
	slices.Sort(members)
	memIDs := make([]uint64, len(members))
	for i, g := range members {
		memIDs[i] = uint64(g)
	}
	mem, err := newRowStore(cfg.Points.Gather(members), memIDs)
	if err != nil {
		return nil, err
	}
	ix, err := newEpochIndex(cfg.Cell, src, mem)
	if err != nil {
		return nil, err
	}
	return &MutableLocalShard{ix}, nil
}

// NPoints returns the number of member rows the shard currently holds.
func (s *MutableLocalShard) NPoints() int { return s.rows(1) }

// link pins epoch as a link of the shard's chain. EpochFrozen is an
// error: every query on a mutable shard must name a concrete snapshot.
func (s *MutableLocalShard) link(ctx context.Context, epoch Epoch) (chainLink, error) {
	if epoch == EpochFrozen {
		return chainLink{}, fmt.Errorf("geometry: mutable shard queried without a pinned epoch")
	}
	ev, err := s.view(ctx, epoch)
	if err != nil {
		return chainLink{}, err
	}
	return ev.link(), nil
}

// PartialCounts computes the shard's epoch-e member contributions around
// every epoch-e global row, capped at limit, from the shard's epoch chain
// (crossCellCounts over the source and member generations). The shared
// pinned ladder makes the sum bit-identical to the frozen single-index
// pass over the epoch's rows.
func (s *MutableLocalShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32) ([]int32, error) {
	link, err := s.link(ctx, epoch)
	if err != nil {
		return nil, err
	}
	out := make([]int32, link.src.nView)
	if err := s.chain.counts(ctxOrBackground(ctx), s.opts.Workers, link, j, r, limit, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DupCounts returns, for every epoch-e global row, the number of epoch-e
// member rows bitwise identical to it: a copy of the chain's table.
func (s *MutableLocalShard) DupCounts(ctx context.Context, epoch Epoch) ([]int32, error) {
	link, err := s.link(ctx, epoch)
	if err != nil {
		return nil, err
	}
	dup, err := s.chain.dups(link)
	return slices.Clone(dup), err
}

// Append lands one coordinator batch (see MutableShardBackend) as one
// epoch: all rows join the source store, the memberLocal subset (strictly
// ascending indices into rows) joins the member store.
func (s *MutableLocalShard) Append(ctx context.Context, rows *vec.Frame, memberLocal []int32, ids []uint64) (Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return 0, fmt.Errorf("geometry: shard append of no rows")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The source batch is checked first: the member ids are read from it.
	if err := s.log.stores[0].checkAppend(rows, ids); err != nil {
		return 0, err
	}
	memIDs := make([]uint64, len(memberLocal))
	for i, li := range memberLocal {
		if li < 0 || int(li) >= rows.N() {
			return 0, fmt.Errorf("geometry: member-local index %d out of [0, %d)", li, rows.N())
		}
		memIDs[i] = ids[li]
	}
	return s.appendLocked([]*vec.Frame{rows, rows.Gather(memberLocal)}, [][]uint64{ids, memIDs})
}

// Delete removes the batch from the source store and whichever of its ids
// the shard holds from the member store, as one epoch; ids a store does
// not hold are skipped. Deleting every member row is an error the
// coordinator pre-validates; it is re-checked here before any state
// changes.
func (s *MutableLocalShard) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: shard delete of no rows")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(ids, false)
}

// CurrentEpoch returns the shard's epoch.
func (s *MutableLocalShard) CurrentEpoch(ctx context.Context) (Epoch, error) {
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return 0, err
	}
	return s.epoch(), nil
}

// coordView is the coordinator's cached snapshot of one epoch.
type coordView struct {
	rows storeView
	view *ShardedIndex
	viewOnce
}

// MutableShardedIndex is the mutable counterpart of the backend-mode
// ShardedIndex: a coordinator that owns the global row store and its epoch
// log, broadcasts every mutation batch to all shards (each new row is
// assigned to the least-loaded shard; the assignment never affects
// results — partition independence), and pins epochs as backend-mode
// ShardedIndex views whose bulk queries carry the epoch to every shard.
// A mutation that fails part-way leaves shards at diverged epochs, so the
// handle turns sticky-broken: every subsequent operation reports the
// original failure rather than risking a cross-epoch answer.
type MutableShardedIndex struct {
	lad radiusLadder

	mu       sync.Mutex
	log      *epochLog[coordView] // over one store, without base generations
	shardOf  []int32              // row -> owning shard
	counts   []int                // live member rows per shard
	backends []MutableShardBackend
	broken   error
	closed   bool
}

// NewMutableShardedIndexBackends builds a mutable sharded index whose
// shards are reached through the MutableShardBackend seam: the initial
// points are partitioned exactly as the immutable constructor would, each
// backend dialed with its ShardConfig (ladder-pinned cell options), and
// the coordinator keeps the authoritative global row order every snapshot
// frame exposes. The ladder is pinned from the options alone (see
// NewMutableCellIndexFrame); initial points outside the declared domain
// are ErrOutOfDomain.
func NewMutableShardedIndexBackends(ctx context.Context, points *vec.Frame, opts ShardedIndexOptions, dial MutableShardDialer) (*MutableShardedIndex, error) {
	ctx = ctxOrBackground(ctx)
	store, err := newRowStore(points, nil)
	if err != nil {
		return nil, err
	}
	n, d := points.N(), points.Dim()
	cellOpts := opts.Cell.withDefaults(d)
	lad, err := newRadiusLadder(cellOpts, d, 0)
	if err != nil {
		return nil, err
	}
	log, err := newEpochLog[coordView](lad.maxR, store)
	if err != nil {
		return nil, err
	}

	s := min(max(opts.Shards, 1), n)
	shardCell := cellOpts
	shardCell.MaxRadius = lad.maxR

	members := assignShards(points, s)
	shardOf := make([]int32, n)
	counts := make([]int, s)
	for si, gids := range members {
		counts[si] = len(gids)
		for _, g := range gids {
			shardOf[g] = int32(si)
		}
	}
	m := &MutableShardedIndex{lad: lad, log: log, shardOf: shardOf, counts: counts}
	m.backends, err = fanOut(ctx, s, func(ctx context.Context, si int) (MutableShardBackend, error) {
		return dial(ctx, si, ShardConfig{Points: points, Members: members[si], Cell: shardCell})
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Rows returns the current number of rows.
func (m *MutableShardedIndex) Rows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.log.stores[0].ids)
}

// Epoch returns the current epoch.
func (m *MutableShardedIndex) Epoch() Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.epoch
}

// Append adds rows as one batch (see MutableBallIndex): every shard
// receives the full batch as query sources, each row joins the
// least-loaded shard's member set, and all shards advance to the same new
// epoch before the coordinator commits it.
func (m *MutableShardedIndex) Append(ctx context.Context, rows *vec.Frame) ([]uint64, Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return nil, 0, fmt.Errorf("geometry: append of no rows")
	}
	k := rows.N()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return nil, 0, err
	}
	store := m.log.stores[0]
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = store.nextID + uint64(i)
	}
	if err := store.checkAppend(rows, ids); err != nil {
		return nil, 0, err
	}
	lo, hi, err := m.log.admit(rows)
	if err != nil {
		return nil, 0, err
	}

	// Deterministic balance: each row joins the currently least-loaded
	// shard (lowest index on ties). Partition independence makes this a
	// pure load knob — results never depend on it.
	asg := make([]int32, k)
	memberLocal := make([][]int32, len(m.backends))
	for i := 0; i < k; i++ {
		best := 0
		for si := 1; si < len(m.counts); si++ {
			if m.counts[si] < m.counts[best] {
				best = si
			}
		}
		asg[i] = int32(best)
		m.counts[best]++ // rolled back below on failure
		memberLocal[best] = append(memberLocal[best], int32(i))
	}

	if err := m.broadcastLocked(ctx, m.log.epoch+1, func(cctx context.Context, si int, be MutableShardBackend) (Epoch, error) {
		return be.Append(cctx, rows, memberLocal[si], ids)
	}); err != nil {
		for _, si := range asg {
			m.counts[si]--
		}
		return nil, 0, err
	}

	if err := store.append(rows, ids); err != nil {
		// Unreachable after the checks above; surface it as sticky
		// breakage rather than silently diverging from the shards.
		m.broken = err
		return nil, 0, err
	}
	m.shardOf = append(m.shardOf, asg...)
	return ids, m.log.advance(lo, hi), nil
}

// Delete removes the rows with the given stable ids (see MutableBallIndex),
// after validating that every id exists and that no shard would lose its
// last member row. The coordinator's store compacts to the survivors,
// preserving insertion order, and older epochs retire (their storage
// stays alive under any snapshot still held by a query).
func (m *MutableShardedIndex) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: delete of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return 0, err
	}
	store := m.log.stores[0]
	gone, err := store.locate(ids, true)
	if err != nil {
		return 0, err
	}
	lost := make([]int, len(m.counts))
	for _, row := range gone {
		lost[m.shardOf[row]]++
	}
	for si, l := range lost {
		if l == m.counts[si] {
			return 0, fmt.Errorf("geometry: delete would leave shard %d without members", si)
		}
	}

	if err := m.broadcastLocked(ctx, m.log.epoch+1, func(cctx context.Context, si int, be MutableShardBackend) (Epoch, error) {
		return be.Delete(cctx, ids)
	}); err != nil {
		return 0, err
	}

	next, live, err := store.compact(gone)
	if err != nil {
		m.broken = err
		return 0, err
	}
	*store = next
	m.shardOf = dropRows(m.shardOf, gone, 1)
	for si := range m.counts {
		m.counts[si] -= lost[si]
	}
	return m.log.retire(live), nil
}

// usableLocked rejects operations on a closed or broken handle.
func (m *MutableShardedIndex) usableLocked() error {
	if m.closed {
		return ErrIndexClosed
	}
	if m.broken != nil {
		return fmt.Errorf("geometry: mutable index broken by an earlier failed mutation: %w", m.broken)
	}
	return nil
}

// broadcastLocked fans one mutation out to every backend concurrently and
// verifies they all land on the wanted epoch. Any failure (or epoch
// divergence) marks the handle broken: the shards can no longer be assumed
// consistent.
func (m *MutableShardedIndex) broadcastLocked(ctx context.Context, want Epoch, call func(context.Context, int, MutableShardBackend) (Epoch, error)) error {
	epochs, err := fanOut(ctxOrBackground(ctx), len(m.backends), func(ctx context.Context, si int) (Epoch, error) {
		return call(ctx, si, m.backends[si])
	})
	if err != nil {
		m.broken = fmt.Errorf("mutation batch for epoch %d failed: %w", want, err)
		return m.broken
	}
	for si, e := range epochs {
		if e != want {
			m.broken = fmt.Errorf("shard %d landed on epoch %d, want %d", si, e, want)
			return m.broken
		}
	}
	return nil
}

// Snapshot pins epoch as an immutable BallIndex: a backend-mode
// ShardedIndex over the coordinator's row prefix at that epoch, every bulk
// query stamped with the epoch. Snapshots are cached per epoch and
// single-flight.
func (m *MutableShardedIndex) Snapshot(ctx context.Context, epoch Epoch) (BallIndex, error) {
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	cv, rows, err := m.log.pin(epoch)
	if rows != nil {
		cv.rows = m.log.stores[0].at(rows[0])
	}
	backends := make([]ShardBackend, len(m.backends))
	for si, be := range m.backends {
		backends[si] = be
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := cv.wait(ctx, func() error { return m.buildView(cv, backends, epoch) }); err != nil {
		return nil, err
	}
	return cv.view, nil
}

// buildView assembles the epoch's view: the row-prefix frame plus the
// global duplicate table summed from the per-shard epoch-pinned DupCounts.
// Built under a background context so a cancelled pinner cannot poison the
// cached view.
func (m *MutableShardedIndex) buildView(cv *coordView, backends []ShardBackend, epoch Epoch) error {
	dup, err := sumDups(context.Background(), backends, epoch, cv.rows.nView)
	if err != nil {
		return err
	}
	cv.view = &ShardedIndex{frame: cv.rows.buf.View(cv.rows.nView), lad: m.lad, backends: backends, dupCount: dup, epoch: epoch, sharedBackends: true}
	return nil
}

// Merge asks every shard to fold its deltas, concurrently. A failed merge
// never breaks the handle — results are unaffected, only serving cost.
func (m *MutableShardedIndex) Merge(ctx context.Context) error {
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return err
	}
	backends := append([]MutableShardBackend(nil), m.backends...)
	m.mu.Unlock()
	errs := make([]error, len(backends))
	var wg sync.WaitGroup
	for si, be := range backends {
		wg.Add(1)
		go func(si int, be MutableShardBackend) {
			defer wg.Done()
			errs[si] = be.Merge(ctx)
		}(si, be)
	}
	wg.Wait()
	return firstRealError(ctxOrBackground(ctx), errs)
}

// Close releases the shard backends. Idempotent; in-flight snapshots stay
// valid locally but their backend calls will fail once the transports are
// gone.
func (m *MutableShardedIndex) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	backends := m.backends
	m.mu.Unlock()
	var first error
	for _, be := range backends {
		if be == nil {
			continue
		}
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Compile-time interface checks for the mutable layer.
var (
	_ MutableBallIndex    = (*MutableCellIndex)(nil)
	_ MutableBallIndex    = (*MutableShardedIndex)(nil)
	_ MutableShardBackend = (*MutableLocalShard)(nil)
)
