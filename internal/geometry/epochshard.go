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
	// parallel) extend the shard's source set, and the memberLocal indices
	// into rows name the ones that join this shard's member set (possibly
	// none — the shard still advances its epoch). Returns the new epoch.
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

// MutableLocalShard is the in-process MutableShardBackend: two
// MutableCellIndexes — the member rows and the global source rows — kept
// in epoch lockstep, each answering pinned-epoch queries from its
// two-generation (base + delta) snapshot views. It is what the shard
// server runs behind the mutable wire sessions, and what loopback tests
// plug directly into NewMutableShardedIndexBackends.
//
// One epoch chain serves both PartialCounts and DupCounts, its source and
// member sides advancing in lockstep: a new epoch extends the previous
// one's count blocks (4·n_src bytes per swept level) and duplicate table
// through the rows appended since, instead of recounting either delta.
type MutableLocalShard struct {
	mu        sync.Mutex
	members   *MutableCellIndex // the shard's member rows, keyed by global stable ids
	src       *MutableCellIndex // the global source rows
	memberIDs map[uint64]struct{}
	chain     *epochChain
}

// NewMutableLocalShard builds the in-process mutable backend for one
// shard. As with NewLocalShard, the config's cell options must be
// defaulted and ladder-pinned; the initial rows get stable ids equal to
// their global row indices (the coordinator's convention, which lets a
// remote server infer them from the OPEN payload alone).
func NewMutableLocalShard(cfg ShardConfig) (*MutableLocalShard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cell := cfg.Cell.withDefaults(cfg.Points.Dim())
	// Dup tables live here, per epoch, over the member rows — the inner
	// indexes never need their own.
	cell.skipDupTable = true
	n := cfg.Points.N()
	memIDs := make([]uint64, len(cfg.Members))
	memberIDs := make(map[uint64]struct{}, len(cfg.Members))
	for i, g := range cfg.Members {
		memIDs[i] = uint64(g)
		memberIDs[uint64(g)] = struct{}{}
	}
	members, err := newMutableCellIndexIDs(cfg.Points.Gather(cfg.Members), memIDs, uint64(n), cell)
	if err != nil {
		return nil, err
	}
	srcIDs := make([]uint64, n)
	for i := range srcIDs {
		srcIDs[i] = uint64(i)
	}
	src, err := newMutableCellIndexIDs(cfg.Points, srcIDs, uint64(n), cell)
	if err != nil {
		members.Close()
		return nil, err
	}
	return &MutableLocalShard{
		members:   members,
		src:       src,
		memberIDs: memberIDs,
		chain:     &epochChain{opts: cell},
	}, nil
}

// NPoints returns the number of member rows the shard currently holds.
func (s *MutableLocalShard) NPoints() int { return s.members.Rows() }

// Close stops both inner indexes' background merges. Idempotent.
func (s *MutableLocalShard) Close() error {
	err := s.members.Close()
	if e := s.src.Close(); err == nil {
		err = e
	}
	return err
}

// link pins epoch on both inner indexes as one chain link. EpochFrozen is
// an error: every query on a mutable shard must name a concrete snapshot.
func (s *MutableLocalShard) link(ctx context.Context, epoch Epoch) (chainLink, error) {
	if epoch == EpochFrozen {
		return chainLink{}, fmt.Errorf("geometry: mutable shard queried without a pinned epoch")
	}
	src, err := s.src.viewAt(ctx, epoch)
	if err != nil {
		return chainLink{}, err
	}
	mem, err := s.members.viewAt(ctx, epoch)
	if err != nil {
		return chainLink{}, err
	}
	return chainLink{epoch: epoch, src: src, mem: mem}, nil
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
	if err := s.chain.counts(ctxOrBackground(ctx), s.chain.opts.Workers, link, j, r, limit, out); err != nil {
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

// Append lands one coordinator batch (see MutableShardBackend): all rows
// join the source index, the memberLocal subset joins the member index,
// and both advance to the same new epoch.
func (s *MutableLocalShard) Append(ctx context.Context, rows *vec.Frame, memberLocal []int32, ids []uint64) (Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return 0, fmt.Errorf("geometry: shard append of no rows")
	}
	if len(ids) != rows.N() {
		return 0, fmt.Errorf("geometry: %d ids for %d appended rows", len(ids), rows.N())
	}
	for _, li := range memberLocal {
		if li < 0 || int(li) >= rows.N() {
			return 0, fmt.Errorf("geometry: member-local index %d out of [0, %d)", li, rows.N())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se, err := s.src.appendAssigned(ctx, rows, ids)
	if err != nil {
		return 0, err
	}
	var memRows *vec.Frame
	var memIDs []uint64
	if len(memberLocal) > 0 {
		memRows = rows.Gather(memberLocal)
		memIDs = make([]uint64, len(memberLocal))
		for i, li := range memberLocal {
			memIDs[i] = ids[li]
		}
	}
	me, err := s.members.appendAssigned(ctx, memRows, memIDs)
	if err != nil {
		return 0, fmt.Errorf("geometry: shard epochs diverged on append: %w", err)
	}
	if se != me {
		return 0, fmt.Errorf("geometry: shard epochs diverged on append: source at %d, members at %d", se, me)
	}
	for _, id := range memIDs {
		s.memberIDs[id] = struct{}{}
	}
	return se, nil
}

// Delete removes the batch from the source set and the shard-held subset
// from the member set (an empty intersection still advances the member
// epoch — lockstep). Deleting every member row is an error the
// coordinator pre-validates; it is re-checked here before any state
// changes.
func (s *MutableLocalShard) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: shard delete of no rows")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var memIDs []uint64
	for _, id := range ids {
		if _, ok := s.memberIDs[id]; ok {
			memIDs = append(memIDs, id)
		}
	}
	if len(memIDs) == s.members.Rows() {
		return 0, fmt.Errorf("geometry: delete would leave the shard without members")
	}
	se, err := s.src.deleteAssigned(ctx, ids)
	if err != nil {
		return 0, err
	}
	me, err := s.members.deleteAssigned(ctx, memIDs)
	if err != nil {
		return 0, fmt.Errorf("geometry: shard epochs diverged on delete: %w", err)
	}
	if se != me {
		return 0, fmt.Errorf("geometry: shard epochs diverged on delete: source at %d, members at %d", se, me)
	}
	for _, id := range memIDs {
		delete(s.memberIDs, id)
	}
	return se, nil
}

// CurrentEpoch returns the shard's epoch.
func (s *MutableLocalShard) CurrentEpoch(ctx context.Context) (Epoch, error) {
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return 0, err
	}
	return s.src.Epoch(), nil
}

// Merge folds both inner indexes' deltas into fresh bases.
func (s *MutableLocalShard) Merge(ctx context.Context) error {
	if err := s.src.Merge(ctx); err != nil {
		return err
	}
	return s.members.Merge(ctx)
}

// coordView is the coordinator's cached snapshot of one epoch.
type coordView struct {
	nView int
	buf   *vec.MutableFrame

	once sync.Once
	view *ShardedIndex
	err  error
}

// MutableShardedIndex is the mutable counterpart of the backend-mode
// ShardedIndex: a coordinator that owns the global row buffer and epoch
// bookkeeping, broadcasts every mutation batch to all shards (each new row
// is assigned to the least-loaded shard; the assignment never affects
// results — partition independence), and pins epochs as backend-mode
// ShardedIndex views whose bulk queries carry the epoch to every shard.
// A mutation that fails part-way leaves shards at diverged epochs, so the
// handle turns sticky-broken: every subsequent operation reports the
// original failure rather than risking a cross-epoch answer.
type MutableShardedIndex struct {
	opts CellIndexOptions
	dim  int
	lad  radiusLadder

	mu         sync.Mutex
	buf        *vec.MutableFrame
	ids        []uint64 // stable row ids, insertion order
	nextID     uint64
	shardOf    []int32 // row -> owning shard
	counts     []int   // live member rows per shard
	lo, hi     vec.Vector
	epoch      Epoch
	firstEpoch Epoch
	rowsAt     []int // rowsAt[e-firstEpoch] = rows visible at epoch e
	backends   []MutableShardBackend
	views      map[Epoch]*coordView
	viewOrder  []Epoch
	broken     error
	closed     bool
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
	if points == nil || points.N() == 0 {
		return nil, fmt.Errorf("geometry: mutable sharded index over empty point set")
	}
	buf, err := vec.NewMutableFrame(points)
	if err != nil {
		return nil, err
	}
	n, d := points.N(), points.Dim()
	cellOpts := opts.Cell.withDefaults(d)
	lad, err := newRadiusLadder(cellOpts, d, 0)
	if err != nil {
		return nil, err
	}

	lo, hi := points.Bounds()
	if diag := vec.Vector(hi).Dist(lo); diag > lad.maxR {
		return nil, fmt.Errorf("geometry: bounding-box diagonal %g exceeds MaxRadius %g: %w", diag, lad.maxR, ErrOutOfDomain)
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

	m := &MutableShardedIndex{
		opts:       cellOpts,
		dim:        d,
		lad:        lad,
		buf:        buf,
		nextID:     uint64(n),
		shardOf:    shardOf,
		counts:     counts,
		lo:         lo,
		hi:         hi,
		epoch:      1,
		firstEpoch: 1,
		rowsAt:     []int{n},
		backends:   make([]MutableShardBackend, s),
		views:      make(map[Epoch]*coordView),
	}
	m.ids = make([]uint64, n)
	for i := range m.ids {
		m.ids[i] = uint64(i)
	}

	errs := make([]error, s)
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for si := 0; si < s; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			be, err := dial(dctx, si, ShardConfig{
				Points:  points,
				Members: members[si],
				Cell:    shardCell,
			})
			if err != nil {
				errs[si] = err
				cancel()
				return
			}
			m.backends[si] = be
		}(si)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Rows returns the current number of rows.
func (m *MutableShardedIndex) Rows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.N()
}

// Epoch returns the current epoch.
func (m *MutableShardedIndex) Epoch() Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Append adds rows as one batch (see MutableBallIndex): every shard
// receives the full batch as query sources, each row joins the
// least-loaded shard's member set, and all shards advance to the same new
// epoch before the coordinator commits it.
func (m *MutableShardedIndex) Append(ctx context.Context, rows *vec.Frame) ([]uint64, Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return nil, 0, fmt.Errorf("geometry: append of no rows")
	}
	if rows.Dim() != m.dim {
		return nil, 0, fmt.Errorf("geometry: append of dimension %d onto a %d-dimensional index", rows.Dim(), m.dim)
	}
	k := rows.N()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return nil, 0, err
	}
	lo, hi := m.lo.Clone(), m.hi.Clone()
	growBox(lo, hi, rows)
	if diag := hi.Dist(lo); diag > m.lad.maxR {
		return nil, 0, fmt.Errorf("geometry: appended rows stretch the bounding-box diagonal to %g, beyond MaxRadius %g: %w", diag, m.lad.maxR, ErrOutOfDomain)
	}

	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = m.nextID + uint64(i)
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
	rollback := func() {
		for _, si := range asg {
			m.counts[si]--
		}
	}

	want := m.epoch + 1
	if err := m.broadcastLocked(ctx, want, func(cctx context.Context, si int, be MutableShardBackend) (Epoch, error) {
		return be.Append(cctx, rows, memberLocal[si], ids)
	}); err != nil {
		rollback()
		return nil, 0, err
	}

	if err := m.buf.Append(rows); err != nil {
		// Unreachable after the validations above; surface it as sticky
		// breakage rather than silently diverging from the shards.
		m.broken = err
		return nil, 0, err
	}
	m.ids = append(m.ids, ids...)
	m.nextID += uint64(k)
	m.shardOf = append(m.shardOf, asg...)
	m.lo, m.hi = lo, hi
	m.epoch = want
	m.rowsAt = append(m.rowsAt, m.buf.N())
	if trim := len(m.rowsAt) - maxEpochHistory; trim > 0 {
		m.rowsAt = m.rowsAt[trim:]
		m.firstEpoch += Epoch(trim)
	}
	return ids, want, nil
}

// Delete removes the rows with the given stable ids (see MutableBallIndex),
// after validating that every id exists and that no shard would lose its
// last member row.
func (m *MutableShardedIndex) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: delete of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.usableLocked(); err != nil {
		return 0, err
	}
	del := make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := del[id]; dup {
			return 0, fmt.Errorf("geometry: duplicate id %d in delete", id)
		}
		del[id] = struct{}{}
	}
	lost := make([]int, len(m.counts))
	found := 0
	for row, id := range m.ids {
		if _, ok := del[id]; ok {
			found++
			lost[m.shardOf[row]]++
		}
	}
	if found != len(del) {
		return 0, fmt.Errorf("geometry: delete names %d unknown ids", len(del)-found)
	}
	for si, l := range lost {
		if l == m.counts[si] {
			return 0, fmt.Errorf("geometry: delete would leave shard %d without members", si)
		}
	}

	want := m.epoch + 1
	if err := m.broadcastLocked(ctx, want, func(cctx context.Context, si int, be MutableShardBackend) (Epoch, error) {
		return be.Delete(cctx, ids)
	}); err != nil {
		return 0, err
	}

	// Compact the coordinator's bookkeeping to the survivors, preserving
	// insertion order; old epochs retire and their cached views drop (the
	// storage stays alive under any snapshot still held by a query).
	n := m.buf.N()
	old := m.buf.View(n)
	data := make([]float64, 0, (n-found)*m.dim)
	newIDs := make([]uint64, 0, n-found)
	newShardOf := make([]int32, 0, n-found)
	for row := 0; row < n; row++ {
		if _, gone := del[m.ids[row]]; gone {
			continue
		}
		data = append(data, old.Row(row)...)
		newIDs = append(newIDs, m.ids[row])
		newShardOf = append(newShardOf, m.shardOf[row])
	}
	nf, err := vec.FrameFromData(data, m.dim)
	if err != nil {
		m.broken = err
		return 0, err
	}
	buf, err := vec.NewMutableFrame(nf)
	if err != nil {
		m.broken = err
		return 0, err
	}
	m.buf = buf
	m.ids = newIDs
	m.shardOf = newShardOf
	for si := range m.counts {
		m.counts[si] -= lost[si]
	}
	m.lo, m.hi = nf.Bounds()
	m.epoch = want
	m.firstEpoch = want
	m.rowsAt = []int{nf.N()}
	return want, nil
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
	ctx = ctxOrBackground(ctx)
	epochs := make([]Epoch, len(m.backends))
	errs := make([]error, len(m.backends))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for si, be := range m.backends {
		wg.Add(1)
		go func(si int, be MutableShardBackend) {
			defer wg.Done()
			epochs[si], errs[si] = call(cctx, si, be)
			if errs[si] != nil {
				cancel()
			}
		}(si, be)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
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
	if epoch > m.epoch {
		cur := m.epoch
		m.mu.Unlock()
		return nil, fmt.Errorf("geometry: epoch %d not reached (current %d)", epoch, cur)
	}
	// Cache before the retirement bound, mirroring the shards: a view
	// pinned before a delete keeps its epoch servable (shards retain
	// their matching views the same way).
	cv, ok := m.views[epoch]
	if !ok {
		if epoch < m.firstEpoch {
			oldest := m.firstEpoch
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: epoch %d (oldest retained %d)", ErrEpochRetired, epoch, oldest)
		}
		cv = &coordView{nView: m.rowsAt[epoch-m.firstEpoch], buf: m.buf}
		m.views[epoch] = cv
		m.viewOrder = append(m.viewOrder, epoch)
		if len(m.viewOrder) > maxCachedViews {
			delete(m.views, m.viewOrder[0])
			m.viewOrder = m.viewOrder[1:]
		}
	}
	backends := make([]ShardBackend, len(m.backends))
	for si, be := range m.backends {
		backends[si] = be
	}
	m.mu.Unlock()

	cv.once.Do(func() {
		cv.view, cv.err = m.buildView(cv, backends, epoch)
	})
	if cv.err != nil {
		return nil, cv.err
	}
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return nil, err
	}
	return cv.view, nil
}

// buildView assembles the epoch's view: the row-prefix frame plus the
// global duplicate table summed from the per-shard epoch-pinned DupCounts.
// Built under a background context so a cancelled pinner cannot poison the
// cached view.
func (m *MutableShardedIndex) buildView(cv *coordView, backends []ShardBackend, epoch Epoch) (*ShardedIndex, error) {
	ctx := context.Background()
	frame := cv.buf.View(cv.nView)
	parts := make([][]int32, len(backends))
	errs := make([]error, len(backends))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for si, be := range backends {
		wg.Add(1)
		go func(si int, be ShardBackend) {
			defer wg.Done()
			parts[si], errs[si] = be.DupCounts(cctx, epoch)
			if errs[si] != nil {
				cancel()
			}
		}(si, be)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
		return nil, err
	}
	dup := make([]int32, cv.nView)
	for si, p := range parts {
		if len(p) != cv.nView {
			return nil, fmt.Errorf("geometry: shard %d returned %d dup counts at epoch %d, want %d", si, len(p), epoch, cv.nView)
		}
		for i, c := range p {
			dup[i] += c
		}
	}
	return &ShardedIndex{frame: frame, lad: m.lad, backends: backends, dupCount: dup, epoch: epoch, sharedBackends: true}, nil
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
