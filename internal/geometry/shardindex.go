package geometry

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// ShardedIndexOptions configures NewShardedIndexBackends and
// NewMutableShardedIndexBackends. The points are always partitioned in
// Z-order (see assignShards).
type ShardedIndexOptions struct {
	// Shards is the number of data partitions S. Values below 1 mean 1;
	// values above n are clamped to n (so no shard is ever empty).
	Shards int
	// Cell configures the per-shard cell indexes. MaxRadius is pinned
	// internally to the global radius ladder (see ShardedIndex); every
	// other field applies to each shard as it would to a single CellIndex.
	Cell CellIndexOptions
}

// ShardedIndex is the partitioned BallIndex backend: the quantized rows
// are split into S data partitions, each reached through a ShardBackend —
// a shard server over the wire, or an in-process LocalShard. Each shard
// owns the rows of its partition and counts them against every row, so
// every ladder level of the L̂ sweep is answered by scattering the shards'
// capped counts into global order: each global slot is written by exactly
// one shard. A MutableShardedIndex hands out the same type as its epoch
// views.
//
// Equivalence contract: BuildLStep returns, bit for bit, the step function
// a CellIndex over the same points with the same options builds, for any
// shard count, partition or backend. Two invariants carry it:
//
//   - Shared ladder. Every shard's radius ladder is pinned to the global
//     one (MaxRadius is forced to the global ladder top), so ladder level j
//     has the same radius and the same cell side in every shard.
//   - Each slot is the in-process count. A row's count under the center
//     rule depends only on the row and the other rows' cells, never on
//     which rows share its side of the join, and capped sums of
//     nonnegative terms do not depend on their order. In particular L̂
//     keeps the sensitivity-2 property of Lemma 4.5: the estimate is the
//     same function of the dataset as the unsharded one, so GoodRadius's
//     privacy analysis is untouched by sharding.
//
// Because releases are bit-identical, DP noise draws consume the same rng
// stream and sharded pipelines release exactly what unsharded ones do under
// the same seed. ShardedIndex is safe for concurrent use.
type ShardedIndex struct {
	frame *vec.Frame // global order — what Frame() must expose
	lad   radiusLadder

	// backends are the partitions, reached only through the interface;
	// owned[si] lists the global slots backend si answers, ascending.
	backends []ShardBackend
	owned    [][]int32
	// counters names each backend's latency counter on a traced sweep.
	counters []string

	// dupCount[i] is the number of input points identical to row i — the
	// exact global B_0 counts, scattered from the owners' DupCounts.
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

// ShardDialer constructs the ShardBackend serving shard number `shard` of
// a ShardedIndex. The transport package's dialer connects to a remote
// server and ships cfg at handshake; tests pass
// `func(_ context.Context, _ int, cfg ShardConfig) (ShardBackend, error) {
// return NewLocalShard(cfg) }` to exercise the same path in-process.
type ShardDialer func(ctx context.Context, shard int, cfg ShardConfig) (ShardBackend, error)

// NewShardedIndexBackends builds a ShardedIndex whose shards are reached
// only through the ShardBackend interface — the seam a remote transport
// plugs into. The points are split into S Z-order partitions (S clamped
// to [1, n]), each backend is dialed with its ShardConfig (cell options
// pinned to the global ladder of the points' bounding box), and the global
// duplicate table is scattered from the backends' DupCounts. Every L̂
// sweep level is then the backends' counts scattered into global order —
// bit-identical to a CellIndex over the same points under the equivalence
// contract above. An empty input or an invalid ladder is an error.
//
// Backends are dialed concurrently; the first failure closes the backends
// already dialed and aborts. ctx governs dialing and the duplicate-table
// round trip; a nil ctx means "never cancel". The caller owns the returned
// index's backends: Close releases them.
func NewShardedIndexBackends(ctx context.Context, points *vec.Frame, opts ShardedIndexOptions, dial ShardDialer) (*ShardedIndex, error) {
	ctx = ctxOrBackground(ctx)
	if points == nil || points.N() == 0 {
		return nil, fmt.Errorf("geometry: sharded index over empty point set")
	}
	n, d := points.N(), points.Dim()
	s := min(max(opts.Shards, 1), n)
	cellOpts := opts.Cell.withDefaults(d)
	lo, hi := points.Bounds()
	lad, err := newRadiusLadder(cellOpts, d, vec.Vector(hi).Dist(lo))
	if err != nil {
		return nil, err
	}
	ix := &ShardedIndex{frame: points, lad: lad, owned: assignShards(points, s), counters: shardCounters(s)}
	shardCell := cellOpts
	shardCell.MaxRadius = lad.maxR

	// One shard failing to come up dooms the whole build: fanOut cancels
	// the sibling dials so a misconfigured address reports immediately
	// instead of after every other shard's dial timeout.
	ix.backends, err = fanOut(ctx, s, func(ctx context.Context, si int) (ShardBackend, error) {
		return dial(ctx, si, ShardConfig{Points: points, Owned: ix.owned[si], Cell: shardCell})
	})
	if err == nil {
		ix.dupCount, err = scatterDups(ctx, ix.backends, ix.owned, EpochFrozen, n)
	}
	if err != nil {
		ix.Close()
		return nil, err
	}
	return ix, nil
}

// fanOut calls call for shards 0..n-1 concurrently and collects the
// answers. The first failure cancels the sibling calls, and the error is
// firstRealError's. A failed call leaves its slot the zero value, so a
// backend slot never holds a typed nil that would defeat Close's nil
// guard.
func fanOut[T any](ctx context.Context, n int, call func(ctx context.Context, si int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for si := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := call(cctx, si)
			if err != nil {
				errs[si] = err
				cancel()
				return
			}
			out[si] = v
		}()
	}
	wg.Wait()
	return out, firstRealError(ctx, errs)
}

// scatterDups assembles the global duplicate table of the epoch's n rows,
// the exact radius-0 counts: each backend's DupCounts lands in the slots
// it owns.
func scatterDups(ctx context.Context, backends []ShardBackend, owned [][]int32, epoch Epoch, n int) ([]int32, error) {
	parts, err := fanOut(ctx, len(backends), func(ctx context.Context, si int) ([]int32, error) {
		return backends[si].DupCounts(ctx, epoch)
	})
	if err != nil {
		return nil, err
	}
	dup := make([]int32, n)
	for si, p := range parts {
		if len(p) != len(owned[si]) {
			return nil, fmt.Errorf("geometry: shard %d returned %d dup counts at epoch %d, want %d", si, len(p), epoch, len(owned[si]))
		}
		scatter(dup, owned[si], p)
	}
	return dup, nil
}

// scatter writes src[k] into dst[slots[k]].
func scatter(dst []int32, slots, src []int32) {
	for k, g := range slots {
		dst[g] = src[k]
	}
}

// Close releases the shard backends (network connections, for a remote
// transport). Close is a no-op for per-epoch views whose backends belong
// to a mutable coordinator. Queries after Close fail.
func (ix *ShardedIndex) Close() error {
	if ix.sharedBackends {
		return nil
	}
	return closeAll(ix.backends)
}

// closeAll closes every dialed backend (nil slots are the failed dials)
// and returns the first error.
func closeAll[B ShardBackend](backends []B) error {
	var first error
	for _, be := range backends {
		if any(be) == nil {
			continue
		}
		if err := be.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// assignShards partitions global point ids into s shards: it orders the
// points along a Z-order space-filling curve and cuts the order into s
// contiguous blocks whose sizes differ by at most one point, so every
// shard owns at least one point when s ≤ n. Each block is returned in
// ascending id order (ShardConfig.Owned). Spatially compact shards own
// fewer, denser occupied source cells per level, which shrinks their row
// joins. The assignment never affects results — every count is the
// in-process count of its row.
func assignShards(points *vec.Frame, s int) [][]int32 {
	n := points.N()
	out := make([][]int32, s)
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
	for i := 0; i < n; i++ {
		keys[i] = mortonKey(points.Row(i), bits, cells)
	}
	order := rowRange(0, n)
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
		slices.Sort(out[b])
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

// backendSweep is one BuildLStep sweep's fan-out state, reused at every level.
type backendSweep struct {
	ix     *ShardedIndex
	ctx    context.Context // the sweep's cancel scope
	cancel context.CancelFunc
	bufs   [][]int32 // backend si's counts, one slot per owned row
	errs   []error
	wg     sync.WaitGroup
}

// countAllBackends is the backend-mode bulk pass at one level: one
// PartialCounts round trip per backend, issued concurrently, then each
// backend's capped counts scattered into out through its owned slots, so
// the result is bit-identical to one unsharded pass. On any backend failure
// the siblings are cancelled and the error (never a partial level) is
// returned, which ends the sweep; a cancelled caller ctx aborts every
// in-flight call. Backends reject answers whose slot count is not their
// buffer's, so none can leave a slot unwritten.
func (sw *backendSweep) countAllBackends(ctx context.Context, j int, r float64, limit int32, out []int32) error {
	if r < 0 || limit <= 0 {
		return nil
	}
	sw.wg.Add(len(sw.bufs))
	for si := 1; si < len(sw.bufs); si++ {
		go sw.call(si, j, r, limit)
	}
	sw.call(0, j, r, limit)
	sw.wg.Wait()
	if err := firstRealError(ctx, sw.errs); err != nil {
		return err
	}
	for si, p := range sw.bufs {
		scatter(out, sw.ix.owned[si], p)
	}
	return nil
}

// call runs backend si's round into its buffer. Per-backend spans would
// exhaust the trace's span cap over a sweep's many rounds: the stage span
// accumulates counters, the process histogram the latency distribution.
func (sw *backendSweep) call(si, j int, r float64, limit int32) {
	defer sw.wg.Done()
	start := time.Now()
	err := sw.ix.backends[si].PartialCounts(sw.ctx, sw.ix.epoch, j, r, limit, sw.bufs[si])
	el := time.Since(start)
	statShardFanout.Observe(el.Seconds())
	if span := obs.CurrentSpan(sw.ctx); span != nil {
		span.Count("shard_calls", 1)
		span.Count(sw.ix.counters[si], el.Microseconds())
	}
	if sw.errs[si] = err; err != nil {
		sw.cancel() // tear down the sibling calls
	}
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

// BuildLStep constructs the approximate L(·, S) step function with the
// same sweep as CellIndex (sweepLStep), each level's counts scattered from
// the backends by countAllBackends. Each shard's cell level uses exactly
// the cell side the unsharded index would (shared ladder), so every
// per-point count, and with it the recorded function, is bit-identical to
// the unsharded one: the sensitivity-2 argument (and every downstream
// noise draw) is unchanged; see the ShardedIndex equivalence contract.
func (ix *ShardedIndex) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	sw := &backendSweep{ix: ix, bufs: make([][]int32, len(ix.backends)), errs: make([]error, len(ix.backends))}
	slab := make([]int32, ix.N())
	for si, slots := range ix.owned {
		sw.bufs[si], slab = slab[:len(slots):len(slots)], slab[len(slots):]
	}
	sw.ctx, sw.cancel = context.WithCancel(ctxOrBackground(ctx))
	defer sw.cancel()
	return sweepLStep(ctx, ix.N(), t, ix.dupCount, ix.lad, sw.countAllBackends)
}

// shardCounters names the backends' latency counters on a traced sweep.
func shardCounters(s int) []string {
	out := make([]string, s)
	for si := range out {
		out[si] = fmt.Sprintf("shard%d_us", si)
	}
	return out
}
