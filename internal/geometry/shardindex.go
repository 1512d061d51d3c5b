package geometry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"privcluster/internal/obs"
	"privcluster/internal/vec"
)

// fanoutBuckets span the per-shard bulk-call latency range: in-process
// loopback backends answer in fractions of a millisecond, remote shard
// servers in milliseconds, and a straggling replica in the hundreds.
var fanoutBuckets = []float64{0.0002, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// statShardFanout records each backend's latency in a bulk-count fan-out
// round — the distribution hedged reads exist to tighten. Resolved once so
// the per-call cost is one atomic walk of the bucket bounds.
var statShardFanout = obs.Default.Histogram("privcluster_shard_fanout_seconds",
	"Per-backend latency of one bulk-count fan-out call.", fanoutBuckets)

// ShardPolicy selects how a ShardedIndex assigns points to shards. The
// assignment never affects results — every count is an exact sum of
// per-shard partial counts — only build parallelism and query-time cache
// behavior, so the policy is a pure performance knob.
type ShardPolicy int

const (
	// ShardRoundRobin assigns point i to shard i mod S: perfectly balanced
	// shard sizes with no data-dependent structure. Every shard then spans
	// the whole domain, so each shard's cell levels have roughly as many
	// occupied cells as the unsharded index — the safe, boring default for
	// adversarial layouts.
	ShardRoundRobin ShardPolicy = iota
	// ShardMorton orders the points along a Z-order space-filling curve and
	// cuts the order into S contiguous blocks: spatially compact shards
	// whose cell levels hold fewer, denser occupied cells, which shrinks
	// the per-shard candidate enumeration of the bulk count passes. Sizes
	// still differ by at most one point.
	ShardMorton
)

// ShardedIndexOptions configures NewShardedIndexFrame and
// NewShardedIndexBackends.
type ShardedIndexOptions struct {
	// Shards is the number of data partitions S. Values below 1 mean 1;
	// values above n are clamped to n (so no shard is ever empty).
	Shards int
	// Policy selects the partition rule (default ShardRoundRobin).
	Policy ShardPolicy
	// Cell configures the per-shard cell indexes. MaxRadius is pinned
	// internally to the global radius ladder (see ShardedIndex); every
	// other field applies to each shard as it would to a single CellIndex.
	Cell CellIndexOptions
}

// indexShard is one data partition: a CellIndex over the subset plus the
// mapping from its local point ids back to global ones.
type indexShard struct {
	ix     *CellIndex
	global []int32 // local id -> global id, in local id order
	frozen bool    // a mutable index's shared base generation (see cellGroup)
}

// ShardedIndex is the sharded BallIndex backend: the quantized points are
// partitioned into S shards, each holding its own CellIndex (built in
// parallel) or reached through a ShardBackend. The estimated ball counts
// are sums over data partitions — B̂_r(x) = Σ_s |{y ∈ shard s : y
// contributes to B̂_r(x)}| — so every ladder level of the L̂ sweep is
// answered by summing per-shard capped partial counts.
//
// Equivalence contract: BuildLStep returns, bit for bit, the step function
// a CellIndex over the same points with the same options builds, for any
// shard count, policy or backend. Three invariants carry it:
//
//   - Shared ladder. Every shard's radius ladder is pinned to the global
//     one (MaxRadius is forced to the global ladder top, which dominates
//     each shard's smaller bounding box), so ladder level j has the same
//     radius and the same cell side in every shard.
//   - Positional cell rule. A member point's contribution to a count under
//     the center rule depends only on its own cell coordinates and the
//     query point, never on which other points share its cell. Splitting a
//     cell's occupants across shards therefore splits its contribution
//     into exact partial sums. In particular L̂ keeps the sensitivity-2
//     property of Lemma 4.5: the estimate is the same function of the
//     dataset as the unsharded one, so GoodRadius's privacy analysis is
//     untouched by sharding.
//   - Capping commutes. Capped counts min(B, t) are recovered from
//     per-shard capped partials by nonnegative saturating addition:
//     min(Σ_s min(B_s, t), t) = min(B, t).
//
// Because releases are bit-identical, DP noise draws consume the same rng
// stream and sharded pipelines release exactly what unsharded ones do under
// the same seed. ShardedIndex is safe for concurrent use.
type ShardedIndex struct {
	frame  *vec.Frame // global order — what Frame() must expose
	dim    int
	opts   CellIndexOptions
	lad    radiusLadder
	shards []*indexShard

	// backends is the generic ShardBackend mode (NewShardedIndexBackends):
	// shards are reached only through the interface — possibly over a
	// network — and every bulk query sums the per-backend partial vectors.
	// Exactly one of shards/backends is non-nil: the all-local constructor
	// keeps the fused single-pool pass below (no interface hop, no S-fold
	// source structures), the backend mode pays those costs to buy
	// location transparency. Results are bit-identical either way.
	backends []ShardBackend

	// dupCount[i] is the number of input points identical to row i
	// across ALL shards — the exact global B_0 counts (per-shard duplicate
	// tables cannot see cross-shard duplicates).
	dupCount []int32

	// epoch is the snapshot every backend call is pinned to: EpochFrozen
	// for indexes built over a fixed point set, a concrete epoch for the
	// per-epoch views a mutable index hands out (see MutableShardedIndex).
	epoch Epoch
	// sharedBackends marks the backends as owned by someone else (the
	// mutable coordinator that minted this view): Close then leaves them
	// alone, so closing a cached snapshot can never tear down the live
	// connections every other epoch still queries.
	sharedBackends bool
}

// NewShardedIndexFrame partitions the frame's rows per opts and builds the
// per-shard cell indexes in parallel. It returns an error for an empty input,
// and ctx.Err() when cancelled mid-build (in-flight shard builds are waited
// for, so no goroutines leak). A nil ctx means "never cancel".
func NewShardedIndexFrame(ctx context.Context, points *vec.Frame, opts ShardedIndexOptions) (*ShardedIndex, error) {
	ctx = ctxOrBackground(ctx)
	ix, s, err := newShardedBase(points, opts)
	if err != nil {
		return nil, err
	}

	// Per-shard indexes are built with MaxRadius pinned to the global
	// ladder top, so a shard's (smaller) bounding box can never shrink its
	// ladder: every shard's level j has the same radius and cell side as
	// the unsharded index's — the shared-ladder invariant the exact-sum
	// equivalence rests on. Shards skip their duplicate tables: a per-shard
	// table cannot see cross-shard duplicates, and the sharded index keeps
	// the global one (dupCount) for radius 0, so only the shards' count
	// passes are ever run.
	shardCell := ix.opts
	shardCell.MaxRadius = ix.lad.maxR
	shardCell.skipDupTable = true

	for _, gids := range assignShards(points, s, opts.Policy) {
		if len(gids) == 0 {
			continue // unreachable for s ≤ n; defensive
		}
		ix.shards = append(ix.shards, &indexShard{global: gids})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ix.shards))
	for si, sh := range ix.shards {
		wg.Add(1)
		go func(si int, sh *indexShard) {
			defer wg.Done()
			sh.ix, errs[si] = NewCellIndexFrame(points.Gather(sh.global), shardCell)
		}(si, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ix.dupCount = dupCounts(points, points, nil)
	return ix, nil
}

// newShardedBase runs the prologue both constructors share: input
// validation, shard-count clamping, option defaulting and the global
// bounding box → shared radius ladder.
func newShardedBase(points *vec.Frame, opts ShardedIndexOptions) (*ShardedIndex, int, error) {
	if points == nil || points.N() == 0 {
		return nil, 0, fmt.Errorf("geometry: sharded index over empty point set")
	}
	n, d := points.N(), points.Dim()
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	cellOpts := opts.Cell.withDefaults(d)

	// Global bounding box → the ladder every shard must share.
	var rowBuf vec.Vector
	if points.Precision() == vec.Float32 {
		rowBuf = make(vec.Vector, d)
	}
	first := points.RowView(0, rowBuf)
	lo, hi := first.Clone(), first.Clone()
	for i := 0; i < n; i++ {
		p := points.RowView(i, rowBuf)
		for a, x := range p {
			if x < lo[a] {
				lo[a] = x
			}
			if x > hi[a] {
				hi[a] = x
			}
		}
	}
	return &ShardedIndex{
		frame: points,
		dim:   d,
		opts:  cellOpts,
		lad:   newRadiusLadder(cellOpts, d, hi.Dist(lo)),
	}, s, nil
}

// ShardDialer constructs the ShardBackend serving shard number `shard` of
// a backend-mode ShardedIndex. The transport package's dialer connects to
// a remote server and ships cfg at handshake; tests pass
// `func(_ context.Context, _ int, cfg ShardConfig) (ShardBackend, error) {
// return NewLocalShard(cfg) }` to exercise the generic path in-process.
type ShardDialer func(ctx context.Context, shard int, cfg ShardConfig) (ShardBackend, error)

// NewShardedIndexBackends builds a ShardedIndex whose shards are reached
// only through the ShardBackend interface — the seam a remote transport
// plugs into. The points are partitioned exactly as NewShardedIndexFrame
// would (same policy, same clamping), each backend is dialed with its
// ShardConfig (cell options pinned to the shared global ladder), and the
// global duplicate table is assembled by summing per-backend DupCounts.
// Every L̂ sweep level is then a sum of per-backend partials —
// bit-identical to the local constructor under the equivalence contract
// above.
//
// Backends are dialed concurrently; the first failure closes the backends
// already dialed and aborts. ctx governs dialing and the duplicate-table
// round trip. The caller owns the returned index's backends: Close
// releases them.
func NewShardedIndexBackends(ctx context.Context, points *vec.Frame, opts ShardedIndexOptions, dial ShardDialer) (*ShardedIndex, error) {
	ctx = ctxOrBackground(ctx)
	ix, s, err := newShardedBase(points, opts)
	if err != nil {
		return nil, err
	}
	shardCell := ix.opts
	shardCell.MaxRadius = ix.lad.maxR

	members := assignShards(points, s, opts.Policy)
	ix.backends = make([]ShardBackend, s)
	errs := make([]error, s)
	// One shard failing to come up dooms the whole build: cancel the
	// sibling dials so a misconfigured address reports immediately
	// instead of after every other shard's dial timeout.
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
				// Leave the slot a true nil: a typed-nil backend inside
				// the interface would defeat Close's nil guard.
				errs[si] = err
				cancel()
				return
			}
			ix.backends[si] = be
		}(si)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
		ix.Close()
		return nil, err
	}

	// Global duplicate table: the exact radius-0 counts, as the sum of
	// per-backend contributions (identical points are identical in every
	// shard that holds them, so the partial tables add exactly).
	parts := make([][]int32, s)
	for si, be := range ix.backends {
		wg.Add(1)
		go func(si int, be ShardBackend) {
			defer wg.Done()
			parts[si], errs[si] = be.DupCounts(dctx, EpochFrozen)
			if errs[si] != nil {
				cancel()
			}
		}(si, be)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
		ix.Close()
		return nil, err
	}
	dup := make([]int32, points.N())
	for _, p := range parts {
		for i, c := range p {
			dup[i] += c
		}
	}
	ix.dupCount = dup
	return ix, nil
}

// Close releases the shard backends (network connections, for a remote
// transport). Indexes from the local constructor hold no external
// resources, so Close is then a no-op, as it is for per-epoch views whose
// backends belong to a mutable coordinator. Queries after Close fail.
func (ix *ShardedIndex) Close() error {
	if ix.sharedBackends {
		return nil
	}
	var first error
	for _, be := range ix.backends {
		if be == nil {
			continue
		}
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// assignShards partitions global point ids into s shards per the policy.
// Every shard receives at least one point when s ≤ n.
func assignShards(points *vec.Frame, s int, pol ShardPolicy) [][]int32 {
	n := points.N()
	out := make([][]int32, s)
	if pol != ShardMorton {
		for i := 0; i < n; i++ {
			out[i%s] = append(out[i%s], int32(i))
		}
		return out
	}
	d := points.Dim()
	bits := 64 / d
	if bits < 1 {
		bits = 1
	}
	if bits > 16 {
		bits = 16
	}
	keys := make([]uint64, n)
	cells := make([]uint64, d)
	rowBuf := make(vec.Vector, d)
	for i := 0; i < n; i++ {
		keys[i] = mortonKey(points.RowView(i, rowBuf), bits, cells)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Ties (and the block cuts) break by global id, so the assignment is a
	// deterministic function of the point set alone.
	sort.Slice(order, func(a, b int) bool {
		ka, kb := keys[order[a]], keys[order[b]]
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	for b, lo := 0, 0; b < s; b++ {
		hi := lo + n/s
		if b < n%s {
			hi++
		}
		out[b] = order[lo:hi:hi]
		lo = hi
	}
	return out
}

// mortonKey returns the Z-order (Morton) code of p at the given bits per
// axis: per-axis cell indices over [0,1] are interleaved from the most
// significant bit down, so nearby points share long key prefixes. cells is
// caller-provided scratch of length dim.
func mortonKey(p vec.Vector, bits int, cells []uint64) uint64 {
	hi := uint64(1)<<bits - 1
	for a, x := range p {
		c := uint64(0)
		if x > 0 {
			c = uint64(x * float64(uint64(1)<<bits))
			if c > hi {
				c = hi
			}
		}
		cells[a] = c
	}
	var code uint64
	for b := bits - 1; b >= 0; b-- {
		for _, c := range cells {
			code = code<<1 | (c>>uint(b))&1
		}
	}
	return code
}

// N returns the number of indexed points.
func (ix *ShardedIndex) N() int { return ix.frame.N() }

// Frame returns the indexed point store (not a copy), in the original global
// order — downstream stages (GoodCenter's SVT loop) iterate it, so the
// order must not depend on the sharding.
func (ix *ShardedIndex) Frame() *vec.Frame { return ix.frame }

// Shards returns the number of shards (diagnostic).
func (ix *ShardedIndex) Shards() int {
	if ix.backends != nil {
		return len(ix.backends)
	}
	return len(ix.shards)
}

// countAllBackends is the backend-mode bulk pass: one PartialCounts round
// trip per backend, issued concurrently, then the per-shard capped vectors
// summed with saturation at limit — min(Σ_s min(B_s, t), t) = min(B, t),
// so the result is bit-identical to the fused local pass. On any backend
// failure the siblings are cancelled and the error (never a partial sum)
// is returned; a cancelled caller ctx aborts every in-flight call.
func (ix *ShardedIndex) countAllBackends(ctx context.Context, j int, r float64, limit int32) ([]int32, error) {
	n := ix.frame.N()
	out := make([]int32, n)
	if r < 0 || limit <= 0 {
		return out, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	parts := make([][]int32, len(ix.backends))
	errs := make([]error, len(ix.backends))
	// Per-backend spans would exhaust the trace's span cap over an LStep
	// sweep's many rounds; the enclosing stage span accumulates counters
	// instead, and the latency distribution goes to the process histogram.
	span := obs.CurrentSpan(ctx)
	var wg sync.WaitGroup
	for si, be := range ix.backends {
		wg.Add(1)
		go func(si int, be ShardBackend) {
			defer wg.Done()
			start := time.Now()
			parts[si], errs[si] = be.PartialCounts(cctx, ix.epoch, j, r, limit)
			el := time.Since(start)
			statShardFanout.Observe(el.Seconds())
			if span != nil {
				span.Count("shard_calls", 1)
				span.Count(fmt.Sprintf("shard%d_us", si), el.Microseconds())
			}
			if errs[si] != nil {
				cancel() // tear down the sibling calls
			}
		}(si, be)
	}
	wg.Wait()
	if err := firstRealError(ctx, errs); err != nil {
		return nil, err
	}
	for si, p := range parts {
		if len(p) != n {
			// A backend answering for the wrong snapshot (or a hostile
			// server) must never silently skew the sums.
			return nil, fmt.Errorf("geometry: shard %d returned %d partial counts at epoch %d, want %d", si, len(p), ix.epoch, n)
		}
		addSaturating(out, p, limit)
	}
	return out, nil
}

// firstRealError reduces a fan-out's per-backend errors: the caller's own
// cancellation wins, then a backend's genuine failure is preferred over
// the context.Canceled errors that failure induced in its siblings.
func firstRealError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// countAll computes the capped within-r count of every indexed point by
// summing per-shard member contributions at ladder level j, via the shared
// crossCellCounts engine with the shards as both source and member groups.
// Each shard's cell level uses exactly the cell side the unsharded index
// would (shared ladder), so the per-(source cell, member cell)
// classification — and therefore every per-point count — is bit-identical
// to the single-index pass, accumulated shard by shard with saturation at
// limit. A cancelled ctx aborts the pass with ctx.Err() and no leaked
// goroutines (see crossCellCounts).
func (ix *ShardedIndex) countAll(ctx context.Context, j int, r float64, limit int32) ([]int32, error) {
	ctx = ctxOrBackground(ctx)
	if ix.backends != nil {
		return ix.countAllBackends(ctx, j, r, limit)
	}
	n := ix.frame.N()
	out := make([]int32, n)
	groups := ix.cellGroups()
	if err := crossCellCounts(ctx, ix.opts.Workers, groups, groups, j, r, limit, out); err != nil {
		return nil, err
	}
	return out, nil
}

// cellGroups exposes the local shards as cross-counting groups: each
// shard's index with its local→global id mapping (see crossCellCounts).
func (ix *ShardedIndex) cellGroups() []cellGroup {
	groups := make([]cellGroup, len(ix.shards))
	for si, sh := range ix.shards {
		groups[si] = cellGroup{ix: sh.ix, gids: sh.global, frozen: sh.frozen}
	}
	return groups
}

// BuildLStep constructs the approximate L(·, S) step function exactly as
// the CellIndex sweep does — same fixed ladder, same running-max recording,
// same early saturation stop — with each level's counts summed across
// shards. The recorded function is bit-identical to the unsharded one, so
// the sensitivity-2 argument (and every downstream noise draw) is
// unchanged; see the ShardedIndex equivalence contract.
func (ix *ShardedIndex) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	ctx = ctxOrBackground(ctx)
	n := ix.frame.N()
	if t < 1 || t > n {
		return nil, fmt.Errorf("geometry: BuildLStep t=%d out of [1,%d]", t, n)
	}
	l := &LStep{T: t}
	prev := topTAvg(ix.dupCount, t)
	l.Breaks = append(l.Breaks, 0)
	l.Vals = append(l.Vals, prev)
	levels := 0
	for j := 0; j <= ix.lad.top && prev < float64(t); j++ {
		counts, err := ix.countAll(ctx, j, ix.lad.radius(j), int32(t))
		if err != nil {
			return nil, err
		}
		levels++
		v := topTAvg(counts, t)
		if v > prev {
			l.Breaks = append(l.Breaks, ix.lad.radius(j))
			l.Vals = append(l.Vals, v)
			prev = v
		}
	}
	obs.CurrentSpan(ctx).Count("sweep_levels", int64(levels))
	return l, nil
}
