package geometry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"privcluster/internal/vec"
)

// Epoch identifies one immutable snapshot of a mutable point set. Every
// mutation (append or delete batch) advances the epoch by exactly one;
// queries pin an epoch and are answered from that snapshot alone, so a
// release at epoch E is a pure function of the epoch-E point set no matter
// how many mutations or merges land while the query runs.
type Epoch = uint64

// EpochFrozen is the epoch of an immutable index: backends built over a
// fixed point set serve exactly one snapshot and reject any other epoch.
// Mutable indexes start at epoch 1, so the zero value never collides.
const EpochFrozen Epoch = 0

// ErrEpochRetired is returned (wrapped) when a pinned epoch is no longer
// materializable: a delete compacted the storage it described, or append
// history outgrew the retention window. Queries already holding the
// epoch's snapshot keep working — retirement only stops new pins.
var ErrEpochRetired = errors.New("geometry: epoch retired")

// ErrOutOfDomain is returned (wrapped) when rows carry a non-finite
// coordinate or would push the data's bounding-box diagonal past the
// radius ladder's pinned MaxRadius. The ladder is fixed at construction —
// that is what keeps every epoch's snapshot bit-identical to a fresh index
// over the same points — so rows outside the declared domain must be
// rejected, not silently re-laddered. In-contract inputs (the unit cube
// with MaxRadius √d) can never trigger it.
var ErrOutOfDomain = errors.New("geometry: rows outside the declared domain")

// ErrIndexClosed is returned by operations on a closed mutable index.
var ErrIndexClosed = errors.New("geometry: mutable index closed")

const (
	// maxBaseGens bounds how many merged base generations are retained.
	// Older generations serve older pinned epochs; evicting one retires
	// the epochs only it could serve.
	maxBaseGens = 4
	// maxCachedViews bounds the per-epoch snapshot cache (each view holds
	// a delta CellIndex of O(Δ·d) memory).
	maxCachedViews = 8
	// maxEpochHistory bounds the epoch→rows history; epochs older than the
	// window retire.
	maxEpochHistory = 4096
	// autoMergeMinDelta is the smallest delta the background merge bothers
	// with; below it the delta index is cheap enough to rebuild per view.
	autoMergeMinDelta = 1024
)

// MutableBallIndex is a ball index over a mutable point set: rows are
// appended or deleted in epoch-advancing batches, and Snapshot pins any
// retained epoch as an immutable BallIndex answering every query from
// exactly that point set. Implementations: MutableCellIndex (single
// partition) and MutableShardedIndex (partitioned, possibly remote); both
// keep their epochs in one epochLog, as MutableLocalShard does.
type MutableBallIndex interface {
	// Rows returns the current number of rows.
	Rows() int
	// Epoch returns the current epoch (≥ 1).
	Epoch() Epoch
	// Append adds rows as one batch, advancing the epoch, and returns the
	// stable ids assigned to them plus the new epoch.
	Append(ctx context.Context, rows *vec.Frame) ([]uint64, Epoch, error)
	// Delete removes the rows with the given stable ids as one batch,
	// advancing the epoch and retiring all older epochs. Deleting every
	// remaining row is an error.
	Delete(ctx context.Context, ids []uint64) (Epoch, error)
	// Snapshot pins epoch as an immutable BallIndex. The snapshot stays
	// valid (and bit-stable) for as long as the caller holds it, even
	// across later mutations, merges, and retirement.
	Snapshot(ctx context.Context, epoch Epoch) (BallIndex, error)
	// Merge folds the append delta into the frozen base off the query
	// path, synchronously. It never changes any query result — only the
	// cost of serving subsequent snapshots.
	Merge(ctx context.Context) error
	// Close stops the background merge and releases resources. Close is
	// idempotent.
	Close() error
}

// rowStore is one mutable row set: an append-only buffer, the stable id of
// each row, and (in process) the merged base generations over the
// buffer's prefixes. Ids are strictly ascending along the buffer: appended
// ids stay above every id seen (checkIDs) and compaction keeps insertion
// order, so a store finds an id by binary search. Its owner's lock guards
// it.
type rowStore struct {
	buf    *vec.MutableFrame
	ids    []uint64
	nextID uint64    // the id high-water mark: appended ids are at or above it
	bases  []baseGen // merged generations, ascending n (newest last); none on a coordinator
}

// baseGen is one merged storage generation: a frozen CellIndex over the
// first n rows of the buffer.
type baseGen struct {
	ix *CellIndex
	n  int
}

// newRowStore seeds a store with points (ownership of their storage
// transfers) under ids, or under 0..n-1 when ids is nil.
func newRowStore(points *vec.Frame, ids []uint64) (*rowStore, error) {
	if points == nil || points.N() == 0 {
		return nil, fmt.Errorf("geometry: mutable index over empty point set")
	}
	if ids == nil {
		ids = make([]uint64, points.N())
		for i := range ids {
			ids[i] = uint64(i)
		}
	}
	if err := checkIDs(points, ids, 0); err != nil {
		return nil, err
	}
	buf, err := vec.NewMutableFrame(points)
	if err != nil {
		return nil, err
	}
	return &rowStore{buf: buf, ids: ids, nextID: ids[len(ids)-1] + 1}, nil
}

// checkIDs is the stable-id rule: one id per row, strictly ascending and
// at or above the high-water mark from.
func checkIDs(rows *vec.Frame, ids []uint64, from uint64) error {
	if len(ids) != rows.N() {
		return fmt.Errorf("geometry: %d ids for %d rows", len(ids), rows.N())
	}
	for _, id := range ids {
		if id < from || id == math.MaxUint64 {
			return fmt.Errorf("geometry: id %d outside [%d, 2^64-1): ids must ascend above the high-water mark", id, from)
		}
		from = id + 1
	}
	return nil
}

// checkAppend validates a batch for the store without changing it.
func (s *rowStore) checkAppend(rows *vec.Frame, ids []uint64) error {
	if rows.Dim() != s.buf.Dim() {
		return fmt.Errorf("geometry: append of dimension %d onto a %d-dimensional index", rows.Dim(), s.buf.Dim())
	}
	return checkIDs(rows, ids, s.nextID)
}

// append lands a batch checkAppend accepted.
func (s *rowStore) append(rows *vec.Frame, ids []uint64) error {
	if err := s.buf.Append(rows); err != nil {
		return err
	}
	s.ids = append(s.ids, ids...)
	if len(ids) > 0 {
		s.nextID = ids[len(ids)-1] + 1
	}
	return nil
}

// locate returns the ascending rows of the store holding ids, given in
// any order. A duplicate id is an error, and so is an id the store does
// not hold when strict (otherwise it is skipped). Removing every row is an
// error.
func (s *rowStore) locate(ids []uint64, strict bool) ([]int, error) {
	rows := make([]int, 0, len(ids))
	for _, id := range ids {
		if r, ok := slices.BinarySearch(s.ids, id); ok {
			rows = append(rows, r)
		}
	}
	slices.Sort(rows)
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			return nil, fmt.Errorf("geometry: duplicate id %d in delete", s.ids[rows[i]])
		}
	}
	if strict && len(rows) != len(ids) {
		return nil, fmt.Errorf("geometry: delete names %d unknown ids", len(ids)-len(rows))
	}
	if len(rows) == len(s.ids) {
		return nil, fmt.Errorf("geometry: delete would leave the index empty")
	}
	return rows, nil
}

// compact returns the store without the given rows (ascending, from
// locate) and its surviving rows: the survivors keep insertion order in a
// fresh buffer, so views taken before keep the old one. The result holds
// no base generation; an in-process owner seeds one over the survivors.
func (s *rowStore) compact(gone []int) (rowStore, *vec.Frame, error) {
	d := s.buf.Dim()
	live, err := vec.FrameFromData(dropRows(s.buf.View(len(s.ids)).Data(), gone, d), d)
	if err != nil {
		return rowStore{}, nil, err
	}
	buf, err := vec.NewMutableFrame(live)
	if err != nil {
		return rowStore{}, nil, err
	}
	return rowStore{buf: buf, ids: dropRows(s.ids, gone, 1), nextID: s.nextID}, live, nil
}

// dropRows returns a copy of xs, k values per row, without the rows at the
// ascending positions gone.
func dropRows[T any](xs []T, gone []int, k int) []T {
	out := make([]T, 0, len(xs)-len(gone)*k)
	next := 0
	for _, r := range gone {
		out = append(out, xs[next*k:r*k]...)
		next = r + 1
	}
	return append(out, xs[next*k:]...)
}

// wantsMerge reports whether the store's delta has grown past a quarter of
// its newest base (and is worth the rebuild at all).
func (s *rowStore) wantsMerge() bool {
	baseN := s.bases[len(s.bases)-1].n
	delta := len(s.ids) - baseN
	return delta >= autoMergeMinDelta && delta*4 >= baseN
}

// at captures the store's first n rows for a view: the buffer and the
// newest base generation fitting the prefix. When every retained
// generation has outgrown it (merges FIFO-trim old generations), the
// buffer still holds rows [0, n) verbatim and the view builds from the
// buffer alone: merges stay a cost knob, never a semantic one.
func (s *rowStore) at(n int) storeView {
	sv := storeView{buf: s.buf, nView: n}
	for i := len(s.bases) - 1; i >= 0; i-- {
		if s.bases[i].n <= n {
			sv.gen = s.bases[i]
			break
		}
	}
	return sv
}

// storeView is one store's rows at one epoch: the buffer prefix and the
// base generation captured at pin time, and (once built) the prefix as a
// frame and its cell groups, the base plus a delta index over the rest.
type storeView struct {
	buf    *vec.MutableFrame
	nView  int
	gen    baseGen
	groups []cellGroup
	frame  *vec.Frame
}

// epochLog is the epoch bookkeeping of every mutable index, so each epoch
// rule is decided here and nowhere else: which rows each epoch holds (the
// row count of every store at every retained epoch), when an epoch
// retires, which rows the domain check accepts, and the per-epoch view
// cache. It is guarded by its owner's lock.
type epochLog[V any] struct {
	stores []*rowStore // stores[0] holds every row the domain check covers
	maxR   float64     // the pinned ladder top
	lo, hi vec.Vector  // bounding box over stores[0]'s rows
	epoch  Epoch
	first  Epoch // oldest epoch rowsAt still describes
	rowsAt []int // rowsAt[(e-first)·len(stores)+s] = rows of store s at epoch e
	views  map[Epoch]*V
	order  []Epoch // cached epochs, oldest first
}

// newEpochLog starts a log at epoch 1 over stores, whose rows must pass
// the domain check for the ladder top maxR.
func newEpochLog[V any](maxR float64, stores ...*rowStore) (*epochLog[V], error) {
	l := &epochLog[V]{stores: stores, maxR: maxR, epoch: 1, first: 1, views: make(map[Epoch]*V)}
	rows := stores[0].buf.View(len(stores[0].ids))
	l.lo, l.hi = rows.Bounds()
	if err := l.checkDomain(rows, l.lo, l.hi); err != nil {
		return nil, err
	}
	l.record()
	return l, nil
}

// checkDomain is the domain rule: every coordinate of rows is finite, and
// the box [lo, hi] over the live rows spans at most the ladder top. The
// box alone cannot see a NaN (growBox and Bounds skip it), so rows are
// scanned as well.
func (l *epochLog[V]) checkDomain(rows *vec.Frame, lo, hi vec.Vector) error {
	if err := checkFinite(rows); err != nil {
		return err
	}
	if diag := hi.Dist(lo); diag > l.maxR {
		return fmt.Errorf("geometry: rows stretch the bounding-box diagonal to %g, beyond MaxRadius %g: %w", diag, l.maxR, ErrOutOfDomain)
	}
	return nil
}

// checkFinite rejects a frame holding a NaN or infinite coordinate with
// ErrOutOfDomain.
func checkFinite(f *vec.Frame) error {
	for _, x := range f.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("geometry: non-finite coordinate %g: %w", x, ErrOutOfDomain)
		}
	}
	return nil
}

// admit returns the live box widened by rows, bound for store 0, or the
// domain check's error; the log is unchanged either way.
func (l *epochLog[V]) admit(rows *vec.Frame) (lo, hi vec.Vector, err error) {
	lo, hi = l.lo.Clone(), l.hi.Clone()
	growBox(lo, hi, rows)
	return lo, hi, l.checkDomain(rows, lo, hi)
}

// record appends the stores' current row counts as the newest epoch's.
func (l *epochLog[V]) record() {
	for _, s := range l.stores {
		l.rowsAt = append(l.rowsAt, len(s.ids))
	}
}

// advance opens the epoch of an append that admit accepted (lo, hi is the
// box admit returned), trimming the history to maxEpochHistory epochs.
func (l *epochLog[V]) advance(lo, hi vec.Vector) Epoch {
	l.lo, l.hi = lo, hi
	l.epoch++
	l.record()
	if trim := len(l.rowsAt)/len(l.stores) - maxEpochHistory; trim > 0 {
		l.rowsAt = l.rowsAt[trim*len(l.stores):]
		l.first += Epoch(trim)
	}
	return l.epoch
}

// retire opens the epoch of a delete: every older epoch retires for new
// pins, and the box shrinks to live, stores[0]'s surviving rows. Views
// already cached stay: they captured the pre-compaction storage at pin
// time, so they keep serving their epochs (until FIFO eviction) for
// queries still in flight, including a remote coordinator's.
func (l *epochLog[V]) retire(live *vec.Frame) Epoch {
	l.lo, l.hi = live.Bounds()
	l.epoch++
	l.first = l.epoch
	l.rowsAt = l.rowsAt[:0]
	l.record()
	return l.epoch
}

// pin returns epoch's view from the cache, or enters a new zero view and
// returns with it the stores' row counts at epoch, which the caller
// captures into it before releasing its lock (rows is nil on a hit). The
// cache is consulted before the retirement bound: a view pinned before a
// delete retired its epoch still serves it from the storage it captured.
func (l *epochLog[V]) pin(epoch Epoch) (v *V, rows []int, err error) {
	if epoch > l.epoch {
		return nil, nil, fmt.Errorf("geometry: epoch %d not reached (current %d)", epoch, l.epoch)
	}
	if v := l.views[epoch]; v != nil {
		return v, nil, nil
	}
	if epoch < l.first {
		return nil, nil, fmt.Errorf("%w: epoch %d (oldest retained %d)", ErrEpochRetired, epoch, l.first)
	}
	v = new(V)
	l.views[epoch] = v
	l.order = append(l.order, epoch)
	if len(l.order) > maxCachedViews {
		delete(l.views, l.order[0])
		l.order = l.order[1:]
	}
	i := int(epoch-l.first) * len(l.stores)
	return v, l.rowsAt[i : i+len(l.stores)], nil
}

// viewOnce makes a cached view's build single-flight: the first pinner
// runs it and every pinner gets its error.
type viewOnce struct {
	once sync.Once
	err  error
}

// wait runs build once and then honors ctx. build must not depend on any
// pinner's context, so a cancelled pinner cannot poison the cached view
// for everyone after it.
func (o *viewOnce) wait(ctx context.Context, build func() error) error {
	o.once.Do(func() { o.err = build() })
	if o.err != nil {
		return o.err
	}
	return ctxOrBackground(ctx).Err()
}

// epochIndex is the in-process mutable index behind MutableCellIndex (one
// store) and MutableLocalShard (the global source rows and the shard's
// member rows): its stores, one epoch log over them, one epoch chain that
// counts the source rows against the member rows, and the background
// merge.
type epochIndex struct {
	opts CellIndexOptions // the ladder-pinned options of every base and delta index
	lad  radiusLadder

	mu    sync.Mutex
	log   *epochLog[epochView]
	chain epochChain

	merging bool
	mergeWG sync.WaitGroup
	mctx    context.Context
	mstop   context.CancelFunc
	closed  bool
}

// newEpochIndex pins the ladder from cell alone (never from the data, so
// rows outside the declared domain are ErrOutOfDomain) and seeds every
// store with a base generation over its rows. It takes one store, or a
// shard's two: stores[0] is the source store, the last one the member
// store.
func newEpochIndex(cell CellIndexOptions, stores ...*rowStore) (*epochIndex, error) {
	d := stores[0].buf.Dim()
	opts := cell.withDefaults(d)
	lad, err := newRadiusLadder(opts, d, 0)
	if err != nil {
		return nil, err
	}
	opts.MaxRadius = lad.maxR
	// The view keeps the duplicate table (through the chain), so no base
	// or delta index needs its own.
	opts.skipDupTable = true
	log, err := newEpochLog[epochView](lad.maxR, stores...)
	if err != nil {
		return nil, err
	}
	for _, s := range stores {
		base, err := NewCellIndexFrame(s.buf.View(len(s.ids)), opts)
		if err != nil {
			return nil, err
		}
		s.bases = []baseGen{{ix: base, n: base.N()}}
	}
	mctx, mstop := context.WithCancel(context.Background())
	return &epochIndex{opts: opts, lad: lad, log: log, chain: epochChain{opts: opts}, mctx: mctx, mstop: mstop}, nil
}

// rows returns the current row count of store s.
func (ix *epochIndex) rows(s int) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.log.stores[s].ids)
}

// epoch returns the current epoch.
func (ix *epochIndex) epoch() Epoch {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.log.epoch
}

// appendLocked lands rows[s] with ids[s] on every store s as one epoch,
// after checking every batch and the domain.
func (ix *epochIndex) appendLocked(rows []*vec.Frame, ids [][]uint64) (Epoch, error) {
	if ix.closed {
		return 0, ErrIndexClosed
	}
	for s, st := range ix.log.stores {
		if err := st.checkAppend(rows[s], ids[s]); err != nil {
			return 0, err
		}
	}
	lo, hi, err := ix.log.admit(rows[0])
	if err != nil {
		return 0, err
	}
	for s, st := range ix.log.stores {
		if err := st.append(rows[s], ids[s]); err != nil {
			return 0, err
		}
	}
	e := ix.log.advance(lo, hi)
	ix.maybeMergeLocked()
	return e, nil
}

// deleteLocked removes ids from every store as one epoch (see
// rowStore.locate for strict): each store that held some of them is
// compacted, with a new base generation built synchronously so the delta
// only ever holds appends, and every older epoch retires. Nothing changes
// unless every store's compaction succeeds.
func (ix *epochIndex) deleteLocked(ids []uint64, strict bool) (Epoch, error) {
	if ix.closed {
		return 0, ErrIndexClosed
	}
	stores := ix.log.stores
	var gone [2][]int
	for s, st := range stores {
		var err error
		if gone[s], err = st.locate(ids, strict); err != nil {
			return 0, err
		}
	}
	var next [2]rowStore
	var live [2]*vec.Frame
	for s, st := range stores {
		if len(gone[s]) == 0 {
			next[s], live[s] = *st, st.buf.View(len(st.ids))
			continue
		}
		var err error
		if next[s], live[s], err = st.compact(gone[s]); err != nil {
			return 0, err
		}
		base, err := NewCellIndexFrame(live[s], ix.opts)
		if err != nil {
			return 0, err
		}
		next[s].bases = []baseGen{{ix: base, n: live[s].N()}}
	}
	for s, st := range stores {
		*st = next[s]
	}
	return ix.log.retire(live[0]), nil
}

// view pins epoch and returns its view, built (outside the lock, once)
// from the rows the log names: per store, the newest base generation
// fitting the epoch's row prefix plus a delta CellIndex over the rest, all
// pinned to the shared ladder.
func (ix *epochIndex) view(ctx context.Context, epoch Epoch) (*epochView, error) {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil, ErrIndexClosed
	}
	ev, rows, err := ix.log.pin(epoch)
	if rows != nil {
		ev.m, ev.epoch = ix, epoch
		for s, st := range ix.log.stores {
			ev.sides[s] = st.at(rows[s])
		}
	}
	ix.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ev.wait(ctx, func() error { return ix.buildView(ev) }); err != nil {
		return nil, err
	}
	return ev, nil
}

// buildView fills each side's frame and groups and, on a single-store
// index, the duplicate table its sweeps read (from the chain). A shard
// asks its chain for the table per DupCounts call instead.
func (ix *epochIndex) buildView(ev *epochView) error {
	for s := range ix.log.stores {
		sv := &ev.sides[s]
		sv.frame = sv.buf.View(sv.nView)
		if sv.gen.ix != nil {
			sv.groups = append(sv.groups, cellGroup{ix: sv.gen.ix})
		}
		if sv.nView > sv.gen.n {
			delta, err := NewCellIndexFrame(sv.buf.Slice(sv.gen.n, sv.nView), ix.opts)
			if err != nil {
				return err
			}
			sv.groups = append(sv.groups, cellGroup{ix: delta, gids: rowRange(sv.gen.n, sv.nView)})
		}
	}
	if len(ix.log.stores) > 1 {
		return nil
	}
	var err error
	ev.dup, err = ix.chain.dups(ev.link())
	return err
}

// maybeMergeLocked starts the background merge once some store's delta
// qualifies (rowStore.wantsMerge).
func (ix *epochIndex) maybeMergeLocked() {
	if ix.merging || ix.closed || !slices.ContainsFunc(ix.log.stores, (*rowStore).wantsMerge) {
		return
	}
	ix.merging = true
	ix.mergeWG.Add(1)
	go func() {
		defer ix.mergeWG.Done()
		_ = ix.merge(ix.mctx, true) // next mutation retries on failure
		ix.mu.Lock()
		ix.merging = false
		ix.mu.Unlock()
	}()
}

// Merge folds every store's delta into a new base generation: a CellIndex
// over the whole current buffer is built off the query path (the cell
// levels the old base had materialized are pre-warmed on it), then swapped
// in under the lock for subsequent snapshot builds. Existing views are
// untouched — the group partition is invisible to results, so merge
// timing can never change a release.
func (ix *epochIndex) Merge(ctx context.Context) error {
	return ix.merge(ctxOrBackground(ctx), false)
}

// merge folds every store's delta, or with auto only the deltas
// wantsMerge accepts.
func (ix *epochIndex) merge(ctx context.Context, auto bool) error {
	for _, s := range ix.log.stores {
		if err := ix.mergeStore(ctx, s, auto); err != nil {
			return err
		}
	}
	return nil
}

// mergeStore folds one store's delta. If a delete compacts the store
// mid-build the stale result is discarded (the compaction built its own
// fresh base).
func (ix *epochIndex) mergeStore(ctx context.Context, s *rowStore, auto bool) error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return ErrIndexClosed
	}
	cur, nAll := s.bases[len(s.bases)-1], len(s.ids)
	if cur.n == nAll || auto && !s.wantsMerge() {
		ix.mu.Unlock()
		return nil
	}
	buf := s.buf
	frame := buf.View(nAll)
	warm := cur.ix.cachedLevelKeys()
	ix.mu.Unlock()

	base, err := NewCellIndexFrame(frame, ix.opts)
	if err != nil {
		return err
	}
	for _, j := range warm {
		if ctx.Err() != nil {
			break
		}
		base.level(j)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return ErrIndexClosed
	}
	if s.buf != buf {
		return nil // compacted underneath; the compaction's base supersedes
	}
	if nAll > s.bases[len(s.bases)-1].n {
		s.bases = append(s.bases, baseGen{ix: base, n: nAll})
		if len(s.bases) > maxBaseGens {
			s.bases = s.bases[1:]
		}
	}
	return nil
}

// Close stops the background merge and marks the index closed. In-flight
// snapshots stay queryable; new operations fail with ErrIndexClosed.
// Close is idempotent.
func (ix *epochIndex) Close() error {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return nil
	}
	ix.closed = true
	ix.mu.Unlock()
	ix.mstop()
	ix.mergeWG.Wait()
	return nil
}

// epochView is the snapshot of one epoch of an epochIndex, built once on
// first pin and cached by its log: the source store's view and, on a
// shard, the member store's.
type epochView struct {
	m     *epochIndex
	epoch Epoch
	sides [2]storeView
	dup   []int32 // the duplicate table (single-store indexes)
	viewOnce
}

// link is the view as a link of its index's epoch chain: a single-store
// index counts its rows against themselves.
func (ev *epochView) link() chainLink {
	return chainLink{epoch: ev.epoch, src: &ev.sides[0], mem: &ev.sides[len(ev.m.log.stores)-1]}
}

// N returns the epoch's row count.
func (ev *epochView) N() int { return ev.sides[0].nView }

// Frame returns the epoch's rows.
func (ev *epochView) Frame() *vec.Frame { return ev.sides[0].frame }

// BuildLStep sweeps the ladder like CellIndex (sweepLStep), each level
// counted through the index's epoch chain.
func (ev *epochView) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	link := ev.link()
	return sweepLStep(ctx, ev.N(), t, ev.dup, ev.m.lad, func(ctx context.Context, j int, r float64, limit int32, out []int32) error {
		return ev.m.chain.counts(ctx, ev.m.opts.Workers, link, j, r, limit, out)
	})
}

// MutableCellIndex is the mutable counterpart of CellIndex: one row store
// — an append-only buffer (vec.MutableFrame) split into a frozen base, a
// plain CellIndex over a prefix, and a delta tail — with an epoch log and
// an epoch chain. A pinned epoch materializes as a view over two storage
// generations: the shared base index plus a small CellIndex over the
// epoch's delta rows, pinned to the same radius ladder. By the
// ShardedIndex equivalence contract that view answers every BallIndex
// query bit-identically to a fresh CellIndex over exactly the epoch's rows
// — which is the whole point: a release pinned at epoch E cannot be
// distinguished from one computed against a frozen copy of the epoch-E
// dataset, so the sensitivity analysis (and any seeded noise draw) carries
// over unchanged.
//
// Deletes compact: the survivors are copied into a fresh buffer, a new
// base is built synchronously, and every older epoch retires (their
// already-pinned snapshots keep the old storage alive and stay valid).
// Appends are cheap — O(batch) into the buffer — and a background merge
// folds the delta into a new base generation once it grows past a fraction
// of the base, off the query path, atomically swapping it in for
// subsequent snapshot builds. Merging never advances the epoch and never
// changes a result: it only moves rows from the delta group of future
// views into their base group, and the group partition is invisible to
// query results (the partition-independence half of the ShardedIndex
// contract).
//
// Every view counts through the index's epoch chain, which keeps the
// newest swept epoch's uncapped count blocks (4·n bytes per swept level)
// and duplicate table: a newer epoch extends them through the rows
// appended since, so it pays for its batch, not for the whole delta.
// Merges keep the chain; a delete restarts it, and a pin older than the
// chain's head or a level the head never swept runs one full pass.
//
// MutableCellIndex is safe for concurrent use; mutations serialize
// internally, snapshots and queries run concurrently with them.
type MutableCellIndex struct{ *epochIndex }

// NewMutableCellIndexFrame builds a mutable index seeded with the frame's
// rows (stable ids 0..n-1, epoch 1). The frame must be float64 and
// non-empty; ownership of its storage transfers to the index. The radius
// ladder is pinned at construction from opts (never from the data), so the
// data must fit the declared domain: a non-finite coordinate or a
// bounding-box diagonal beyond MaxRadius — impossible for in-contract
// inputs in the unit cube — is ErrOutOfDomain.
func NewMutableCellIndexFrame(points *vec.Frame, opts CellIndexOptions) (*MutableCellIndex, error) {
	s, err := newRowStore(points, nil)
	if err != nil {
		return nil, err
	}
	ix, err := newEpochIndex(opts, s)
	if err != nil {
		return nil, err
	}
	return &MutableCellIndex{ix}, nil
}

// Rows returns the current number of rows.
func (m *MutableCellIndex) Rows() int { return m.rows(0) }

// Epoch returns the current epoch.
func (m *MutableCellIndex) Epoch() Epoch { return m.epoch() }

// Append adds rows as one batch, assigning fresh stable ids, and advances
// the epoch.
func (m *MutableCellIndex) Append(ctx context.Context, rows *vec.Frame) ([]uint64, Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return nil, 0, fmt.Errorf("geometry: append of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint64, rows.N())
	for i := range ids {
		ids[i] = m.log.stores[0].nextID + uint64(i)
	}
	e, err := m.appendLocked([]*vec.Frame{rows}, [][]uint64{ids})
	if err != nil {
		return nil, 0, err
	}
	return ids, e, nil
}

// Delete removes the rows with the given stable ids as one batch: the
// survivors are compacted into a fresh buffer (insertion order preserved)
// and a new base generation is built synchronously. The epoch advances and
// every older epoch retires; snapshots already pinned stay valid on the
// old storage. Unknown or duplicate ids are an error, as is deleting every
// remaining row.
func (m *MutableCellIndex) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: delete of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deleteLocked(ids, true)
}

// Snapshot pins epoch as an immutable BallIndex (see MutableBallIndex).
func (m *MutableCellIndex) Snapshot(ctx context.Context, epoch Epoch) (BallIndex, error) {
	ev, err := m.view(ctx, epoch)
	if err != nil {
		return nil, err
	}
	return ev, nil
}
