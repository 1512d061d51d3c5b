package geometry

import (
	"context"
	"errors"
	"fmt"
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

// ErrOutOfDomain is returned (wrapped) when appended rows would push the
// data's bounding-box diagonal past the radius ladder's pinned MaxRadius.
// The ladder is fixed at construction — that is what keeps every epoch's
// snapshot bit-identical to a fresh index over the same points — so rows
// outside the declared domain must be rejected, not silently re-laddered.
// In-contract inputs (the unit cube with MaxRadius √d) can never trigger
// it.
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
// partition) and MutableShardedIndex (partitioned, possibly remote).
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

// baseGen is one merged storage generation: a frozen CellIndex over the
// first n rows of the buffer.
type baseGen struct {
	ix *CellIndex
	n  int
}

// epochView is the snapshot of one epoch, built once on first pin and
// cached. The build parameters (epoch, row count, base generation, buffer)
// are captured under the index lock at pin time; the build itself runs
// outside it and fills groups (the base and delta indexes), frame and dup.
type epochView struct {
	m     *MutableCellIndex
	epoch Epoch
	nView int
	gen   baseGen
	buf   *vec.MutableFrame

	once   sync.Once
	groups []cellGroup
	frame  *vec.Frame
	dup    []int32
	err    error
}

// N returns the epoch's row count.
func (ev *epochView) N() int { return ev.nView }

// Frame returns the epoch's rows.
func (ev *epochView) Frame() *vec.Frame { return ev.frame }

// BuildLStep sweeps the ladder like CellIndex (sweepLStep), each level
// counted through the index's epoch chain.
func (ev *epochView) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	link := chainLink{epoch: ev.epoch, src: ev, mem: ev}
	return sweepLStep(ctx, ev.nView, t, ev.dup, ev.m.lad, func(ctx context.Context, j int, r float64, limit int32, out []int32) error {
		return ev.m.chain.counts(ctx, ev.m.opts.Workers, link, j, r, limit, out)
	})
}

// MutableCellIndex is the mutable counterpart of CellIndex: an append-only
// row buffer (vec.MutableFrame) split into a frozen base — a plain
// CellIndex over a prefix — and a delta tail. A pinned epoch materializes
// as a view over two storage generations: the shared base index plus a
// small CellIndex over the epoch's delta rows, pinned to the same radius
// ladder. By the ShardedIndex equivalence contract that view answers every
// BallIndex query bit-identically to a fresh CellIndex over exactly the
// epoch's rows — which is the whole point: a release pinned at epoch E
// cannot be distinguished from one computed against a frozen copy of the
// epoch-E dataset, so the sensitivity analysis (and any seeded noise draw)
// carries over unchanged.
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
type MutableCellIndex struct {
	opts     CellIndexOptions // defaulted; what every view is built from
	partOpts CellIndexOptions // opts for the per-generation indexes (no dup table)
	dim      int
	lad      radiusLadder

	mu     sync.Mutex
	buf    *vec.MutableFrame
	bufGen int      // bumped by compaction; a merge from a stale buffer is abandoned
	ids    []uint64 // stable row ids, insertion order (parallel to buffer rows)
	nextID uint64
	lo, hi vec.Vector // running bounding box over every live row

	epoch      Epoch
	firstEpoch Epoch // oldest epoch rowsAt still describes
	rowsAt     []int // rowsAt[e-firstEpoch] = row count visible at epoch e

	bases     []baseGen // merged generations, ascending n (newest last)
	views     map[Epoch]*epochView
	viewOrder []Epoch
	chain     *epochChain // unused with skipDupTable: a shard keeps its own

	merging bool
	mergeWG sync.WaitGroup
	mctx    context.Context
	mstop   context.CancelFunc
	closed  bool
}

// NewMutableCellIndexFrame builds a mutable index seeded with the frame's
// rows (stable ids 0..n-1, epoch 1). The frame must be float64 and
// non-empty; ownership of its storage transfers to the index. The radius
// ladder is pinned at construction from opts (never from the data), so the
// data must fit the declared domain: a bounding-box diagonal beyond
// MaxRadius — impossible for in-contract inputs in the unit cube — is
// ErrOutOfDomain.
func NewMutableCellIndexFrame(points *vec.Frame, opts CellIndexOptions) (*MutableCellIndex, error) {
	ids := make([]uint64, points.N())
	for i := range ids {
		ids[i] = uint64(i)
	}
	return newMutableCellIndexIDs(points, ids, uint64(points.N()), opts)
}

// newMutableCellIndexIDs is the internal constructor with caller-assigned
// stable ids — how a shard backend keys its member rows by their global
// ids. nextID is the monotone id high-water mark (appended batches must
// stay at or above it).
func newMutableCellIndexIDs(points *vec.Frame, ids []uint64, nextID uint64, opts CellIndexOptions) (*MutableCellIndex, error) {
	if points == nil || points.N() == 0 {
		return nil, fmt.Errorf("geometry: mutable index over empty point set")
	}
	if len(ids) != points.N() {
		return nil, fmt.Errorf("geometry: %d ids for %d points", len(ids), points.N())
	}
	n, d := points.N(), points.Dim()
	opts = opts.withDefaults(d)
	lad, err := newRadiusLadder(opts, d, 0)
	if err != nil {
		return nil, err
	}

	lo, hi := points.Bounds()
	if diag := vec.Vector(hi).Dist(lo); diag > lad.maxR {
		return nil, fmt.Errorf("geometry: bounding-box diagonal %g exceeds MaxRadius %g: %w", diag, lad.maxR, ErrOutOfDomain)
	}

	partOpts := opts
	partOpts.MaxRadius = lad.maxR
	partOpts.skipDupTable = true
	base, err := NewCellIndexFrame(points, partOpts)
	if err != nil {
		return nil, err
	}
	buf, err := vec.NewMutableFrame(points)
	if err != nil {
		return nil, err
	}
	mctx, mstop := context.WithCancel(context.Background())
	return &MutableCellIndex{
		opts:       opts,
		partOpts:   partOpts,
		dim:        d,
		lad:        lad,
		buf:        buf,
		ids:        append([]uint64(nil), ids...),
		nextID:     nextID,
		lo:         lo,
		hi:         hi,
		epoch:      1,
		firstEpoch: 1,
		rowsAt:     []int{n},
		bases:      []baseGen{{ix: base, n: n}},
		views:      make(map[Epoch]*epochView),
		chain:      &epochChain{opts: partOpts},
		mctx:       mctx,
		mstop:      mstop,
	}, nil
}

// Rows returns the current number of rows.
func (m *MutableCellIndex) Rows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.N()
}

// Epoch returns the current epoch.
func (m *MutableCellIndex) Epoch() Epoch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Append adds rows as one batch, assigning fresh stable ids, and advances
// the epoch.
func (m *MutableCellIndex) Append(ctx context.Context, rows *vec.Frame) ([]uint64, Epoch, error) {
	if rows == nil || rows.N() == 0 {
		return nil, 0, fmt.Errorf("geometry: append of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, ErrIndexClosed
	}
	ids := make([]uint64, rows.N())
	for i := range ids {
		ids[i] = m.nextID + uint64(i)
	}
	e, err := m.appendLocked(rows, ids)
	if err != nil {
		return nil, 0, err
	}
	return ids, e, nil
}

// appendAssigned is the coordinator path: rows arrive with their global
// stable ids already assigned (strictly increasing, at or above the
// high-water mark). A nil/empty rows advances the epoch without adding
// anything — how a shard with no new members this batch stays in epoch
// lockstep with its siblings.
func (m *MutableCellIndex) appendAssigned(ctx context.Context, rows *vec.Frame, ids []uint64) (Epoch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrIndexClosed
	}
	return m.appendLocked(rows, ids)
}

func (m *MutableCellIndex) appendLocked(rows *vec.Frame, ids []uint64) (Epoch, error) {
	if rows != nil && rows.N() > 0 {
		if rows.Dim() != m.dim {
			return 0, fmt.Errorf("geometry: append of dimension %d onto a %d-dimensional index", rows.Dim(), m.dim)
		}
		if len(ids) != rows.N() {
			return 0, fmt.Errorf("geometry: %d ids for %d appended rows", len(ids), rows.N())
		}
		prev := m.nextID
		for _, id := range ids {
			if id < prev {
				return 0, fmt.Errorf("geometry: appended id %d below the id high-water mark %d", id, prev)
			}
			prev = id + 1
		}
		// Validate the domain before touching any state: the ladder is
		// pinned, so rows stretching the bounding box past it must be
		// rejected atomically.
		lo, hi := m.lo.Clone(), m.hi.Clone()
		growBox(lo, hi, rows)
		if diag := hi.Dist(lo); diag > m.lad.maxR {
			return 0, fmt.Errorf("geometry: appended rows stretch the bounding-box diagonal to %g, beyond MaxRadius %g: %w", diag, m.lad.maxR, ErrOutOfDomain)
		}
		if err := m.buf.Append(rows); err != nil {
			return 0, err
		}
		m.ids = append(m.ids, ids...)
		m.nextID = prev
		m.lo, m.hi = lo, hi
	} else if len(ids) != 0 {
		return 0, fmt.Errorf("geometry: %d ids for an empty append", len(ids))
	}
	m.advanceLocked()
	m.maybeMergeLocked()
	return m.epoch, nil
}

// advanceLocked records the new epoch's row count and trims history.
func (m *MutableCellIndex) advanceLocked() {
	m.epoch++
	m.rowsAt = append(m.rowsAt, m.buf.N())
	if trim := len(m.rowsAt) - maxEpochHistory; trim > 0 {
		m.rowsAt = m.rowsAt[trim:]
		m.firstEpoch += Epoch(trim)
	}
}

// maybeMergeLocked kicks the background merge when the delta has grown
// past a quarter of the base (and is worth the rebuild at all).
func (m *MutableCellIndex) maybeMergeLocked() {
	if m.merging || m.closed {
		return
	}
	baseN := m.bases[len(m.bases)-1].n
	delta := m.buf.N() - baseN
	if delta < autoMergeMinDelta || delta*4 < baseN {
		return
	}
	m.merging = true
	m.mergeWG.Add(1)
	go func() {
		defer m.mergeWG.Done()
		_ = m.Merge(m.mctx) // next mutation retries on failure
		m.mu.Lock()
		m.merging = false
		m.mu.Unlock()
	}()
}

// Delete removes the rows with the given stable ids as one batch: the
// survivors are compacted into a fresh buffer (insertion order preserved)
// and a new base generation is built synchronously, so the delta only ever
// holds appends. The epoch advances and every older epoch retires;
// snapshots already pinned stay valid on the old storage. Unknown or
// duplicate ids are an error, as is deleting every remaining row.
func (m *MutableCellIndex) Delete(ctx context.Context, ids []uint64) (Epoch, error) {
	if len(ids) == 0 {
		return 0, fmt.Errorf("geometry: delete of no rows")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrIndexClosed
	}
	return m.deleteLocked(ids, true)
}

// deleteAssigned is the coordinator path: ids may be empty (epoch
// lockstep), and ids this shard does not hold are skipped rather than
// rejected (the coordinator validated existence globally; a shard only
// holds its member subset).
func (m *MutableCellIndex) deleteAssigned(ctx context.Context, ids []uint64) (Epoch, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrIndexClosed
	}
	return m.deleteLocked(ids, false)
}

func (m *MutableCellIndex) deleteLocked(ids []uint64, strict bool) (Epoch, error) {
	if len(ids) > 0 {
		del := make(map[uint64]struct{}, len(ids))
		for _, id := range ids {
			if _, dup := del[id]; dup {
				return 0, fmt.Errorf("geometry: duplicate id %d in delete", id)
			}
			del[id] = struct{}{}
		}
		found := 0
		for _, id := range m.ids {
			if _, ok := del[id]; ok {
				found++
			}
		}
		if strict && found != len(del) {
			return 0, fmt.Errorf("geometry: delete names %d unknown ids", len(del)-found)
		}
		if found == m.buf.N() {
			return 0, fmt.Errorf("geometry: delete would leave the index empty")
		}
		if found > 0 {
			n := m.buf.N()
			old := m.buf.View(n)
			data := make([]float64, 0, (n-found)*m.dim)
			newIDs := make([]uint64, 0, n-found)
			for i := 0; i < n; i++ {
				if _, gone := del[m.ids[i]]; gone {
					continue
				}
				data = append(data, old.Row(i)...)
				newIDs = append(newIDs, m.ids[i])
			}
			nf, err := vec.FrameFromData(data, m.dim)
			if err != nil {
				return 0, err
			}
			base, err := NewCellIndexFrame(nf, m.partOpts)
			if err != nil {
				return 0, err
			}
			buf, err := vec.NewMutableFrame(nf)
			if err != nil {
				return 0, err
			}
			m.buf = buf
			m.bufGen++
			m.ids = newIDs
			m.bases = []baseGen{{ix: base, n: nf.N()}}
			// Recompute the bounding box over the survivors — the running
			// box is conservative (it kept deleted extremes), and we are
			// O(n) here anyway.
			m.lo, m.hi = nf.Bounds()
		}
	}
	m.advanceLocked()
	// Every older epoch retires for NEW pins: either its storage was
	// compacted away, or (for the coordinator-lockstep empty case) a
	// sibling shard's was. Views already pinned stay in the cache — they
	// captured the pre-compaction storage at pin time, so they keep
	// serving their epochs (until FIFO eviction) for queries still in
	// flight, including a remote coordinator's.
	m.firstEpoch = m.epoch
	m.rowsAt = []int{m.buf.N()}
	return m.epoch, nil
}

// Snapshot pins epoch as an immutable BallIndex (see MutableBallIndex).
func (m *MutableCellIndex) Snapshot(ctx context.Context, epoch Epoch) (BallIndex, error) {
	ev, err := m.viewAt(ctx, epoch)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// viewAt materializes (or returns the cached) snapshot of one epoch: a
// view whose groups are the newest base generation fitting the
// epoch's row prefix plus a delta CellIndex over the rest, all pinned to
// the shared ladder. Builds are single-flight per epoch and run outside
// the index lock.
func (m *MutableCellIndex) viewAt(ctx context.Context, epoch Epoch) (*epochView, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrIndexClosed
	}
	if epoch > m.epoch {
		cur := m.epoch
		m.mu.Unlock()
		return nil, fmt.Errorf("geometry: epoch %d not reached (current %d)", epoch, cur)
	}
	// The cache is consulted before the retirement bound: a view pinned
	// before a delete retired its epoch still serves it from the old
	// storage it captured.
	ev, ok := m.views[epoch]
	if !ok {
		if epoch < m.firstEpoch {
			oldest := m.firstEpoch
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: epoch %d (oldest retained %d)", ErrEpochRetired, epoch, oldest)
		}
		nView := m.rowsAt[epoch-m.firstEpoch]
		gen, found := baseGen{}, false
		for i := len(m.bases) - 1; i >= 0; i-- {
			if m.bases[i].n <= nView {
				gen, found = m.bases[i], true
				break
			}
		}
		if !found {
			// Every retained base generation has outgrown this epoch's row
			// prefix (merges FIFO-trim old generations), but the buffer still
			// holds rows [0, nView) verbatim, so the view rebuilds from the
			// buffer alone. Merges stay a cost knob, never a semantic one: an
			// epoch only truly retires via delete-compaction (firstEpoch).
			gen = baseGen{}
		}
		ev = &epochView{m: m, epoch: epoch, nView: nView, gen: gen, buf: m.buf}
		m.views[epoch] = ev
		m.viewOrder = append(m.viewOrder, epoch)
		if len(m.viewOrder) > maxCachedViews {
			delete(m.views, m.viewOrder[0])
			m.viewOrder = m.viewOrder[1:]
		}
	}
	m.mu.Unlock()

	// Built under a background context: a cancelled pinner must not poison
	// the cached view for everyone after it.
	ev.once.Do(func() { ev.err = m.buildView(ev) })
	if ev.err != nil {
		return nil, ev.err
	}
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return nil, err
	}
	return ev, nil
}

// buildView fills ev's groups, frame and duplicate table (from the chain).
func (m *MutableCellIndex) buildView(ev *epochView) error {
	ev.frame = ev.buf.View(ev.nView)
	if ev.gen.ix != nil {
		ev.groups = append(ev.groups, cellGroup{ix: ev.gen.ix})
	}
	if ev.nView > ev.gen.n {
		delta, err := NewCellIndexFrame(ev.buf.Slice(ev.gen.n, ev.nView), m.partOpts)
		if err != nil {
			return err
		}
		ev.groups = append(ev.groups, cellGroup{ix: delta, gids: rowRange(ev.gen.n, ev.nView)})
	}
	if m.opts.skipDupTable {
		return nil
	}
	var err error
	ev.dup, err = m.chain.dups(chainLink{epoch: ev.epoch, src: ev, mem: ev})
	return err
}

// Merge folds the delta into a new base generation: a CellIndex over the
// whole current buffer is built off the query path (the cell levels the
// old base had materialized are pre-warmed on it), then swapped in under
// the lock for subsequent snapshot builds. Existing views are untouched —
// the group partition is invisible to results, so merge timing can never
// change a release. If a delete compacts the buffer mid-build the stale
// result is discarded (the compaction built its own fresh base).
func (m *MutableCellIndex) Merge(ctx context.Context) error {
	ctx = ctxOrBackground(ctx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrIndexClosed
	}
	cur := m.bases[len(m.bases)-1]
	nAll := m.buf.N()
	if cur.n == nAll {
		m.mu.Unlock()
		return nil
	}
	frame := m.buf.View(nAll)
	warm := cur.ix.cachedLevelKeys()
	gen := m.bufGen
	m.mu.Unlock()

	base, err := NewCellIndexFrame(frame, m.partOpts)
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

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrIndexClosed
	}
	if m.bufGen != gen {
		return nil // compacted underneath; the compaction's base supersedes
	}
	if nAll > m.bases[len(m.bases)-1].n {
		m.bases = append(m.bases, baseGen{ix: base, n: nAll})
		if len(m.bases) > maxBaseGens {
			m.bases = m.bases[1:]
		}
	}
	return nil
}

// Close stops the background merge and marks the index closed. In-flight
// snapshots stay queryable; new operations fail with ErrIndexClosed.
// Close is idempotent.
func (m *MutableCellIndex) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.mstop()
	m.mergeWG.Wait()
	return nil
}
