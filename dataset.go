package privcluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/transport"
	"privcluster/internal/vec"
)

// DatasetOptions configures Open: everything about the data and its
// preparation that is fixed for the lifetime of the handle. Per-query knobs
// (the (ε, δ) cost, β, the seed) live in QueryOptions instead. The zero
// value gives the unit-cube domain, |X| = 2¹⁶, the automatic index backend
// and no budget (queries are accounted but never refused).
type DatasetOptions struct {
	// GridSize is |X|: the number of grid values per axis of the finite
	// domain X^d (default 2¹⁶). Points are snapped onto the grid once, at
	// Open.
	GridSize int64
	// Min and Max describe the data domain [Min, Max]^d (Remark 3.3).
	// Inputs are affinely mapped onto the unit cube at Open and query
	// outputs mapped back. Both zero means the unit cube itself.
	Min, Max float64
	// IndexPolicy selects the ball-index backend (default IndexAuto). The
	// handle builds the index lazily on the first query and caches it —
	// the amortization the handle exists for.
	IndexPolicy IndexPolicy
	// Workers bounds the worker pools of the parallel passes (see
	// Options.Workers). 0 means GOMAXPROCS; the handle's index reads it
	// once, when the first query builds it.
	Workers int
	// Deprecated: Shards is ignored, whatever its value or sign. A handle
	// without a Placement builds one in-process index; data partitions
	// live only on shard servers, reached through Placement.
	Shards int
	// Paper switches every internal constant to the paper's proof values.
	Paper bool
	// Placement maps shard partitions onto shard servers — one replica
	// address set per partition, with failover, optional hedged reads,
	// and background health probing on multi-replica partitions (see
	// Placement). When set, the ball index is built with one shard per
	// partition, each served over the wire protocol (cmd/shardserver
	// hosts the replicas; cmd/shardctl generates and validates placement
	// files). Remote execution presumes the scalable backend, so
	// IndexPolicy is ignored; releases stay bit-identical to
	// local execution under the same seed regardless of which replica
	// answers — see the "Remote shards" and "Replication and failover"
	// sections of the package documentation. The first query dials
	// the shard servers; Close releases the connections.
	Placement *Placement
	// Mutable opens a streaming handle: Append and Delete advance the
	// dataset through numbered epochs, and every query runs on an
	// immutable snapshot of one epoch (the current one, or the epoch
	// pinned by QueryOptions.AtEpoch) that answers bit-identically to a
	// fresh Open on exactly that epoch's point set. Mutability presumes
	// the scalable backend — IndexExact is rejected (IndexAuto resolves
	// scalable). Mutation spends no budget; releases spend exactly as on an
	// immutable handle.
	// See the package documentation's "Streaming ingestion" section.
	Mutable bool
	// Budget is the total (ε, δ) the handle may spend across all queries.
	// The zero value means "no budget": spending is tracked (Spent) but
	// never refused — the semantics of the one-shot free functions. Budget
	// accounting is per-handle: opening two handles over the same people's
	// data gives each its own budget, and the real-world guarantee is their
	// composition (the sum). When that caveat is not acceptable, hand the
	// accounting to an external authority via Admitter instead.
	Budget Budget
	// Admitter, when non-nil, replaces the handle's own Budget admission:
	// every query's (ε, δ) cost is reserved through it before any
	// mechanism runs, committed once the mechanism has run, and released
	// only if the query aborted before its mechanism (see Admitter). It is
	// how one admission authority — e.g. cmd/privclusterd's durable
	// per-principal ledger — spans many handles and processes; the
	// per-query principal travels in the query context, not on the handle.
	// Mutually exclusive with Budget (the handle would not know which gate
	// is authoritative). Spent still tracks reserved-minus-released costs
	// for observability; Remaining reports "no budget" since the admitter
	// owns the answer.
	Admitter Admitter
}

func (o DatasetOptions) withDefaults() DatasetOptions {
	if o.GridSize == 0 {
		o.GridSize = 1 << 16
	}
	return o
}

// validate rejects malformed handle configuration up front, so no query
// ever fails late on an Open-time mistake.
func (o DatasetOptions) validate() error {
	if (o.Min != 0 || o.Max != 0) && o.Max <= o.Min {
		return fmt.Errorf("privcluster: domain bounds Max=%v ≤ Min=%v", o.Max, o.Min)
	}
	if math.IsNaN(o.Min) || math.IsInf(o.Min, 0) || math.IsNaN(o.Max) || math.IsInf(o.Max, 0) {
		return fmt.Errorf("privcluster: domain bounds must be finite, got [%v, %v]", o.Min, o.Max)
	}
	if _, err := o.IndexPolicy.core(); err != nil {
		return err
	}
	if o.Placement != nil {
		if err := o.Placement.validate(); err != nil {
			return err
		}
	}
	if o.Mutable {
		if o.IndexPolicy == IndexExact {
			return fmt.Errorf("privcluster: Mutable requires the scalable index (IndexExact has no incremental form)")
		}
		if p := o.Placement; p != nil && !p.singleReplica() {
			// A mutable session is connection-scoped and non-idempotent:
			// replaying an append on a sibling could apply it twice, and a
			// sibling dialed later would miss every earlier epoch. Refuse
			// up front rather than fail on the first mutation.
			return fmt.Errorf("privcluster: Mutable requires single-replica partitions (epoch sessions are connection-scoped and cannot fail over)")
		}
	}
	if o.Admitter != nil && !o.Budget.IsZero() {
		return fmt.Errorf("privcluster: Budget and Admitter are mutually exclusive — the Admitter owns admission")
	}
	return o.Budget.validate()
}

// span returns the domain width Max−Min, defaulting to the unit interval.
func (o DatasetOptions) span() float64 {
	if o.Min == 0 && o.Max == 0 {
		return 1
	}
	return o.Max - o.Min
}

func (o DatasetOptions) toUnit(x float64) float64   { return (x - o.Min) / o.span() }
func (o DatasetOptions) fromUnit(x float64) float64 { return o.Min + x*o.span() }

// prepare maps points into the unit cube (Remark 3.3) and snaps them onto
// grid, row by row straight into a fresh frame — the one preparation Open
// and Append share, so an appended row is bit-identical to the same row
// under a fresh Open. For 1-D points it also returns the unit-mapped,
// unquantized values InteriorPoint runs on, with NaN mapped to 0 (Min) as
// the grid snap maps it.
func (o DatasetOptions) prepare(points []Point, grid geometry.Grid) (*vec.Frame, []float64, error) {
	d := grid.Dim
	frame := vec.NewFrame(len(points), d)
	var raw []float64
	if d == 1 {
		raw = make([]float64, len(points))
	}
	for i, p := range points {
		if len(p) != d {
			return nil, nil, fmt.Errorf("privcluster: point %d has dimension %d, want %d", i, len(p), d)
		}
		u := frame.Row(i)
		for j, x := range p {
			u[j] = o.toUnit(x)
		}
		if d == 1 {
			raw[i] = u[0]
			if math.IsNaN(raw[i]) {
				raw[i] = 0
			}
		}
		grid.QuantizeInto(u, u)
	}
	return frame, raw, nil
}

func (o DatasetOptions) profile() core.Profile {
	p := core.DefaultProfile()
	if o.Paper {
		p = core.PaperProfile()
	}
	p.Workers = o.Workers
	return p
}

// QueryOptions configures one query on a Dataset handle. The zero value
// gives ε = 1, δ = 10⁻⁶, β = 0.1 and a time-seeded generator (fresh noise
// per query — the only safe default for a privacy library).
type QueryOptions struct {
	// Epsilon, Delta are the differential-privacy cost of this query; the
	// handle deducts them from its Budget (twice each for InteriorPoint —
	// see Budget).
	Epsilon float64
	Delta   float64
	// Beta is the failure-probability target of the utility guarantees.
	Beta float64
	// Seed makes the query reproducible; 0 is the "fresh seed from the
	// clock" sentinel unless ZeroSeed is set (same semantics as
	// Options.Seed).
	Seed     int64
	ZeroSeed bool
	// AtEpoch pins the query to a past epoch of a Mutable handle: the
	// release is computed on exactly that epoch's point set, regardless of
	// appends, deletes, or merges that landed since. 0 means the current
	// epoch. Deletes retire older epochs — pinning one fails with
	// ErrEpochRetired unless its snapshot is still cached. Every query kind,
	// InteriorPoint included, pins through the handle's one entry per
	// epoch, so all of them follow that rule alike. On an immutable handle
	// any nonzero value is an error.
	AtEpoch uint64
	// Stats, when non-nil, receives the query's stage breakdown (see
	// QueryStats) once the query finishes. Purely observational: it never
	// changes releases, budget accounting, or errors.
	Stats *QueryStats
}

func (q QueryOptions) withDefaults() QueryOptions {
	if q.Epsilon == 0 {
		q.Epsilon = 1
	}
	if q.Delta == 0 {
		q.Delta = 1e-6
	}
	if q.Beta == 0 {
		q.Beta = 0.1
	}
	return q
}

// validate rejects out-of-range privacy/utility parameters before any
// budget is consulted or any mechanism runs. It expects defaults to have
// been applied (the zero values stand for the defaults, not for "invalid").
func (q QueryOptions) validate() error {
	if q.Epsilon <= 0 || math.IsNaN(q.Epsilon) || math.IsInf(q.Epsilon, 0) {
		return fmt.Errorf("privcluster: epsilon must be positive and finite, got %v", q.Epsilon)
	}
	if q.Delta <= 0 || q.Delta >= 1 || math.IsNaN(q.Delta) {
		return fmt.Errorf("privcluster: delta must be in (0, 1), got %v", q.Delta)
	}
	if q.Beta <= 0 || q.Beta >= 1 || math.IsNaN(q.Beta) {
		return fmt.Errorf("privcluster: beta must be in (0, 1), got %v", q.Beta)
	}
	return nil
}

func (q QueryOptions) rng() *rand.Rand {
	return seededRNG(q.Seed, q.ZeroSeed)
}

// indexEntry is one lazily built ball index. The once/err pair makes
// concurrent first queries build it exactly once and share the outcome. An
// epoch entry of a 1-D mutable handle also holds the epoch's raw values.
type indexEntry struct {
	once sync.Once
	ix   geometry.BallIndex
	err  error
	// vals is a prefix of the handle's value mirror until sortedVals
	// replaces it with a sorted copy.
	vals     []float64
	sortOnce sync.Once
}

// sortedVals returns the entry's raw values sorted — what InteriorPoint
// runs on — sorting a copy on first use, so an epoch only the cluster
// queries pin never pays for the sort.
func (e *indexEntry) sortedVals() []float64 {
	e.sortOnce.Do(func() {
		e.vals = append([]float64(nil), e.vals...)
		sort.Float64s(e.vals)
	})
	return e.vals
}

// maxCachedLSteps bounds the per-handle L(·, S) cache: one entry per
// distinct query target t, FIFO-evicted. A serving process typically
// queries a handful of t values, so a small bound captures the win while
// keeping the worst case (the exact backend's O(n²)-breakpoint steps)
// bounded.
const maxCachedLSteps = 8

// cachedIndex decorates the handle's ball index with a memo of the
// BuildLStep sweep — the dominant per-query preprocessing cost, and a pure
// deterministic function of (points, t). Repeated queries at the same t
// skip the whole sweep, which is where the handle's warm-query amortization
// comes from (see BenchmarkDatasetReuse). Caching a deterministic
// preprocessing artifact changes neither the release distribution nor the
// seeded bit-for-bit equivalence with the free functions.
type cachedIndex struct {
	geometry.BallIndex

	mu     sync.Mutex
	lsteps map[int]*geometry.LStep
	order  []int // FIFO of cached targets for eviction
}

func newCachedIndex(ix geometry.BallIndex) *cachedIndex {
	return &cachedIndex{BallIndex: ix, lsteps: make(map[int]*geometry.LStep)}
}

func (c *cachedIndex) BuildLStep(ctx context.Context, t int) (*geometry.LStep, error) {
	c.mu.Lock()
	ls, ok := c.lsteps[t]
	c.mu.Unlock()
	if ok {
		statLStepCacheHit.Inc()
		return ls, nil
	}
	statLStepCacheMiss.Inc()
	// Build outside the lock: concurrent first queries at the same t may
	// both sweep, but the results are identical and the second recording is
	// a no-op — queries never serialize behind a multi-second sweep.
	ls, err := c.BallIndex.BuildLStep(ctx, t)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, dup := c.lsteps[t]; !dup {
		c.lsteps[t] = ls
		c.order = append(c.order, t)
		if len(c.order) > maxCachedLSteps {
			delete(c.lsteps, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.mu.Unlock()
	return ls, nil
}

// Dataset is a prepared, reusable handle over one point set: Open validates
// the configuration, rescales the domain and quantizes the points exactly
// once; the first query builds the ball index (the dominant preprocessing
// cost at n ≥ 10⁵) and caches it so subsequent queries skip straight to the
// private mechanisms; and every query's (ε, δ) cost is deducted from the
// handle's Budget under a mutex, so a serving process can enforce a total
// privacy budget across many queries on the same data.
//
// A Dataset is safe for concurrent use. Queries take a context.Context:
// cancellation is threaded through the long-running inner loops (the cell
// index's bulk-count worker pools, GoodCenter's SVT repetition loop, the
// RecConcave recursion, KCover's rounds), so deadlines abort an in-flight
// query promptly without leaking goroutines. A context that is already
// cancelled when the query arrives consumes no budget; cancelling an
// in-flight query does not refund its charge (noise may already have been
// drawn).
type Dataset struct {
	opts DatasetOptions
	grid geometry.Grid
	dim  int
	// frame holds the unit-domain, grid-quantized points in one flat
	// allocation; every index build and feasibility check sweeps it in
	// place.
	frame *vec.Frame
	// values holds the original (unit-mapped, unquantized) coordinates of a
	// 1-D dataset — what InteriorPoint operates on, per Algorithm 3 (which
	// runs on the raw values, not their grid snaps). Kept sorted: the
	// algorithm's first step is a sort, so order cannot affect the release,
	// and pre-sorting turns the per-query sorts into near-linear passes.
	values []float64
	pol    core.IndexPolicy

	// mut is the handle's mutable index (nil unless opts.Mutable): appends
	// and deletes advance it in numbered epochs; queries pin one epoch's
	// snapshot. Built eagerly at Open — a streaming handle must accept
	// mutations before its first query.
	mut geometry.MutableBallIndex
	// mutMu serializes mutations and guards the 1-D raw-value mirror
	// below. It is separate from mu so budget accounting and snapshot
	// cache lookups never wait behind a remote append round trip.
	mutMu sync.Mutex
	// rawVals/rowIDs mirror the mutable index's row order for 1-D handles:
	// the unit-mapped, unquantized values InteriorPoint runs on, with the
	// assigned ids alongside so deletes compact the mirror identically.
	// Appends only extend them, so an epoch's rows are the prefix its
	// snapshot's N names; compacted is the epoch of the last delete, which
	// compacts both into fresh slices, so no older epoch has a prefix left.
	rawVals   []float64
	rowIDs    []uint64
	compacted geometry.Epoch

	mu     sync.Mutex
	closed bool
	spent  Budget
	// idx is the handle's one ball index, built by the first query from
	// the handle's own options (see index). Immutable handles only.
	idx indexEntry
	// epochs caches one entry per pinned epoch of a mutable handle
	// (single-flight, FIFO-evicted): the epoch's snapshot and, for 1-D
	// handles, its raw values — what every query at that epoch runs on.
	epochs     map[geometry.Epoch]*indexEntry
	epochOrder []geometry.Epoch
	// builds counts index constructions (diagnostics; the concurrency test
	// pins it at one).
	builds atomic.Int32
	// scratch pools per-query working buffers (rotation matrices, histogram
	// maps, member lists) so warm queries re-lend instead of reallocating.
	// Scratch reuse never changes releases — only where intermediates live.
	scratch sync.Pool
}

// Open prepares a reusable Dataset handle: it validates the options and the
// points, maps them into the unit cube (Remark 3.3) and snaps them onto the
// |X|-per-axis grid. No index is built and no budget is spent — both happen
// on the first query.
func Open(points []Point, o DatasetOptions) (*Dataset, error) {
	o = o.withDefaults()
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	pol, err := o.IndexPolicy.core()
	if err != nil {
		return nil, err
	}
	d := len(points[0])
	grid, err := geometry.NewGrid(o.GridSize, d)
	if err != nil {
		return nil, err
	}
	frame, values, err := o.prepare(points, grid)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{
		opts:  o,
		grid:  grid,
		dim:   d,
		frame: frame,
		pol:   pol,
	}
	if o.Mutable {
		// A mutable handle keeps the 1-D mirror in insertion order (each
		// epoch entry sorts its own prefix) and builds its index eagerly:
		// mutations must land before the first query.
		if d == 1 {
			ds.rawVals = values
			ds.rowIDs = make([]uint64, len(points))
			for i := range ds.rowIDs {
				ds.rowIDs[i] = uint64(i)
			}
		}
		var mut geometry.MutableBallIndex
		var err error
		if p := o.Placement; p != nil {
			// validate() already pinned the placement to single-replica
			// partitions (epoch sessions cannot fail over), so the flat
			// per-partition address list feeds the plain mutable path.
			mut, err = core.NewRemoteMutableBallIndexFrame(context.Background(), frame, grid,
				o.Workers, p.flatten(), p.transportOptions())
		} else {
			mut, err = core.NewMutableBallIndexFrame(frame, grid, o.Workers)
		}
		if err != nil {
			return nil, err
		}
		ds.mut = mut
		ds.epochs = make(map[geometry.Epoch]*indexEntry)
		return ds, nil
	}
	sort.Float64s(values) // no-op for nil; see the Dataset.values doc
	ds.values = values
	return ds, nil
}

// N returns the number of points in the handle — for a mutable handle,
// the count at the current epoch.
func (ds *Dataset) N() int {
	if ds.mut != nil {
		return ds.mut.Rows()
	}
	return ds.frame.N()
}

// checkOpen refuses work on a closed handle with the typed ErrClosed.
func (ds *Dataset) checkOpen() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return ErrClosed
	}
	return nil
}

// Dim returns the dimension of the handle's points.
func (ds *Dataset) Dim() int { return ds.dim }

// Remaining returns the unspent budget and whether the handle enforces one;
// handles opened without a Budget return (Budget{}, false) and never refuse
// a query.
func (ds *Dataset) Remaining() (Budget, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.opts.Budget.IsZero() {
		return Budget{}, false
	}
	return ds.opts.Budget.remainingAfter(ds.spent), true
}

// Spent returns the budget consumed by the handle's queries so far (also
// tracked on handles without a Budget).
func (ds *Dataset) Spent() Budget {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.spent
}

// reserve admits cost through the handle's admission authority — the
// in-handle Budget accountant by default, DatasetOptions.Admitter when
// set — refusing (with a *BudgetError wrapping ErrBudgetExhausted by the
// default authority, and recording nothing) a query that no longer fits.
// Admission runs before the expensive per-query work; the caller settles
// the returned hold exactly once — Commit after the mechanism has run
// (success or failure: noise may have been drawn either way), Release
// only if the query aborted before its mechanism could run. External
// admissions are mirrored into ds.spent so Spent stays meaningful.
func (ds *Dataset) reserve(ctx context.Context, cost Budget) (Reservation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a := ds.opts.Admitter; a != nil {
		r, err := a.Reserve(ctx, cost)
		if err != nil {
			return nil, err
		}
		ds.mu.Lock()
		ds.spent.Epsilon += cost.Epsilon
		ds.spent.Delta += cost.Delta
		ds.mu.Unlock()
		return mirrorReservation{ds: ds, r: r, cost: cost}, nil
	}
	return handleAdmitter{ds: ds}.Reserve(ctx, cost)
}

// index returns the handle's ball index, building it exactly once even
// under concurrent first queries; cold reports whether this call ran the
// build. The build resolves automatic Workers once, so a later
// GOMAXPROCS change never rebuilds the index or re-dials its shard
// servers. Index construction draws no randomness, so the built index
// releases bit-identical seeded results to a per-call build. The build
// gets no query context: the index is shared by every later query on the
// handle, so one caller's deadline must not poison it (cancellation still
// aborts the per-query BuildLStep sweep, the dominant cost).
func (ds *Dataset) index() (ix geometry.BallIndex, cold bool, err error) {
	e := &ds.idx
	e.once.Do(func() {
		cold = true
		ds.builds.Add(1)
		var ix geometry.BallIndex
		var err error
		if p := ds.opts.Placement; p != nil {
			ix, err = core.NewReplicatedBallIndexFrame(context.Background(), ds.frame, ds.grid,
				ds.opts.Workers, p.Partitions, transport.ReplicaOptions{
					Options:       p.transportOptions(),
					HedgeDelay:    p.HedgeDelay,
					ProbeInterval: p.ProbeInterval,
				})
		} else {
			ix, err = core.NewBallIndexFrame(ds.frame, ds.grid, ds.pol, ds.opts.Workers)
		}
		if err != nil {
			e.err = err
			return
		}
		e.ix = newCachedIndex(ix)
	})
	if cold {
		statIndexCacheMiss.Inc()
	} else {
		statIndexCacheHit.Inc()
	}
	return e.ix, cold, e.err
}

// Close releases the resources held by the handle's index — the
// shard-server connections of a remote handle, the mutable index's merge
// goroutines and sessions; local immutable indexes hold none, making Close
// optional for them. Close is idempotent; after the first call every
// query and mutation fails with ErrClosed. Queries in flight when Close is
// called may fail.
func (ds *Dataset) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	// Epoch snapshots are views into the mutable index — closing it below
	// releases their backing; the cache entries just drop.
	ds.epochs = nil
	ds.epochOrder = nil
	ds.mu.Unlock()
	var first error
	if ds.mut != nil {
		first = ds.mut.Close()
	}
	// Settle a concurrent build, or make a query that slipped past
	// checkOpen fail instead of building after Close.
	ds.idx.once.Do(func() { ds.idx.err = ErrClosed })
	if ci, ok := ds.idx.ix.(*cachedIndex); ok {
		if c, ok := ci.BallIndex.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// params assembles the core configuration for one cluster query.
func (ds *Dataset) params(ctx context.Context, t int, q QueryOptions) core.Params {
	return core.Params{
		T:       t,
		Privacy: dp.Params{Epsilon: q.Epsilon, Delta: q.Delta},
		Beta:    q.Beta,
		Grid:    ds.grid,
		Profile: ds.opts.profile(),
		Index:   ds.pol,
		Ctx:     ctx,
	}
}

// prepareQuery is the shared front door of the cluster queries: defaults,
// parameter validation, the prompt pre-cancellation check (before any
// budget is consulted), the t range check, and the feasibility pre-flight
// at the per-round budget — all against the frame the query will actually
// run on (the handle's own for immutable queries, the pinned epoch's
// snapshot for mutable ones). It spends nothing.
func (ds *Dataset) prepareQuery(ctx context.Context, f *vec.Frame, t, rounds int, q QueryOptions) (QueryOptions, core.Params, error) {
	q = q.withDefaults()
	if err := q.validate(); err != nil {
		return q, core.Params{}, err
	}
	if err := ctx.Err(); err != nil {
		return q, core.Params{}, err
	}
	if t < 1 || t > f.N() {
		return q, core.Params{}, fmt.Errorf("privcluster: t=%d out of [1, n=%d]", t, f.N())
	}
	prm := ds.params(ctx, t, q)
	plaus := func(p core.Params) bool { return core.ZeroClusterPlausible(f, p) }
	if err := checkFeasible(plaus, prm, rounds, q, ds.opts.GridSize); err != nil {
		return q, core.Params{}, err
	}
	return q, prm, nil
}

// queryIndex resolves the ball index and frame one cluster query runs on.
// Immutable handles defer the (lazily built) index until after
// validation, so ix may come back nil with a nil error — the caller builds
// it via ds.index once the query is known to be valid. Mutable handles
// must pin their epoch entry up front (its frame feeds validation);
// pinning spends nothing.
func (ds *Dataset) queryIndex(q QueryOptions) (ix geometry.BallIndex, f *vec.Frame, err error) {
	ent, err := ds.pinEpoch(q.AtEpoch)
	if err != nil {
		return nil, nil, err
	}
	if ent == nil {
		return nil, ds.frame, nil
	}
	return ent.ix, ent.ix.Frame(), nil
}

// acquireScratch lends the handle's pooled per-query working buffers into
// prm. The returned release must be deferred; until it runs the scratch is
// exclusively owned by this query (sync.Pool guarantees no sharing).
func (ds *Dataset) acquireScratch(prm *core.Params) (release func()) {
	sc, _ := ds.scratch.Get().(*core.QueryScratch)
	if sc == nil {
		sc = core.NewQueryScratch()
	}
	prm.Scratch = sc
	return func() { ds.scratch.Put(sc) }
}

// clusterQuery is the one driver behind FindCluster and FindClusters: the
// front door (prepareQuery, with the budget split across rounds), then
// admission, the index, the mechanism and the budget settlement, each
// under its own stage. Admission comes before compute: the hold is placed
// before the (possibly expensive) index build, released if the build
// fails — the mechanism never ran — and committed once the mechanism has
// (even on error: noise may have been drawn). mech runs the core call and
// maps its output while the pooled scratch is still lent.
func (ds *Dataset) clusterQuery(ctx context.Context, name string, t, rounds int, q QueryOptions,
	mech func(rng *rand.Rand, ix geometry.BallIndex, prm core.Params) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ds.checkOpen(); err != nil {
		return err
	}
	ctx, qt := beginQuery(ctx, name)
	ix, f, err := ds.queryIndex(q)
	if err != nil {
		return err
	}
	q, prm, err := ds.prepareQuery(ctx, f, t, rounds, q)
	if err != nil {
		return err
	}
	rctx := qt.stage("reserve")
	rsv, err := ds.reserve(rctx, Budget{Epsilon: q.Epsilon, Delta: q.Delta})
	qt.endStage(statStageReserve, &qt.stats.Reserve)
	if err != nil {
		return err
	}
	qt.stage("build")
	if ix == nil {
		var cold bool
		if ix, cold, err = ds.index(); err != nil {
			_ = rsv.Release()
			qt.finish(q.Stats)
			return err
		}
		qt.stats.ColdIndex = cold
	}
	qt.endStage(statStageBuild, &qt.stats.Build)
	release := ds.acquireScratch(&prm)
	defer release()
	prm.Ctx = qt.stage("mechanism")
	err = mech(q.rng(), ix, prm)
	qt.endStage(statStageMechanism, &qt.stats.Mechanism)
	qt.stage("commit")
	cerr := rsv.Commit()
	qt.endStage(statStageCommit, &qt.stats.Commit)
	if err == nil {
		err = cerr
	}
	qt.finish(q.Stats)
	return err
}

// FindCluster is the 1-cluster query (Theorem 3.2) on the prepared handle:
// identical semantics and — under the same seed — bit-identical releases to
// the free FindCluster, with the index amortized across the handle's
// queries and the (ε, δ) cost deducted from its Budget.
func (ds *Dataset) FindCluster(ctx context.Context, t int, q QueryOptions) (Cluster, error) {
	var out Cluster
	err := ds.clusterQuery(ctx, "cluster", t, 1, q, func(rng *rand.Rand, ix geometry.BallIndex, prm core.Params) error {
		res, err := core.OneCluster(rng, ix, prm)
		if err != nil {
			return err
		}
		out = Cluster{
			Center:     ds.fromUnitPoint(res.Ball.Center),
			Radius:     res.Ball.Radius * ds.opts.span(),
			RawRadius:  res.RawRadius * ds.opts.span(),
			ZeroRadius: res.ZeroCluster,
		}
		return nil
	})
	if err != nil {
		return Cluster{}, err
	}
	return out, nil
}

// FindClusters is the k-ball covering query (Observation 3.5): one (ε, δ)
// charge, split internally across the k rounds. Round 1 runs on the cached
// index; later rounds cover the not-yet-covered remainder.
func (ds *Dataset) FindClusters(ctx context.Context, k, t int, q QueryOptions) ([]Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("privcluster: FindClusters needs k ≥ 1, got %d", k)
	}
	var out []Cluster
	err := ds.clusterQuery(ctx, "kcover", t, k, q, func(rng *rand.Rand, ix geometry.BallIndex, prm core.Params) error {
		balls, err := core.KCover(rng, ix, k, prm)
		if err != nil {
			return err
		}
		out = make([]Cluster, len(balls))
		for i, b := range balls {
			out[i] = Cluster{Center: ds.fromUnitPoint(b.Center), Radius: b.Radius * ds.opts.span()}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fromUnitPoint maps a unit-cube point back into the handle's domain.
func (ds *Dataset) fromUnitPoint(u vec.Vector) Point {
	p := make(Point, len(u))
	for j, x := range u {
		p[j] = ds.opts.fromUnit(x)
	}
	return p
}

// InteriorPoint is the Algorithm 3 query on a 1-dimensional handle: a value
// between the dataset's min and max (Theorem 5.3), in the handle's original
// domain units. Its budget cost is (2ε, 2δ) — the reduction composes the
// inner 1-cluster stage with the final RecConcave selection, each at
// (ε, δ). Like the free function, it runs on the raw (unquantized) values;
// the handle's grid only discretizes the inner cluster search.
func (ds *Dataset) InteriorPoint(ctx context.Context, innerN int, q QueryOptions) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ds.checkOpen(); err != nil {
		return 0, err
	}
	if ds.dim != 1 {
		return 0, fmt.Errorf("privcluster: InteriorPoint needs a 1-dimensional dataset, got dimension %d", ds.dim)
	}
	q = q.withDefaults()
	if err := q.validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	values := ds.values
	ent, err := ds.pinEpoch(q.AtEpoch)
	if err != nil {
		return 0, err
	}
	if ent != nil {
		values = ent.sortedVals()
	}
	m := len(values)
	if innerN <= 0 || innerN >= m {
		return 0, fmt.Errorf("privcluster: InteriorPoint needs 0 < innerN < n, got innerN=%d, n=%d", innerN, m)
	}
	if innerN < 2 {
		// The inner 1-cluster stage targets t = innerN/2 ≥ 1; reject the
		// degenerate case here, before any budget is consulted.
		return 0, fmt.Errorf("privcluster: InteriorPoint needs innerN ≥ 2 (inner cluster target innerN/2), got %d", innerN)
	}
	cprm := ds.params(ctx, innerN/2, q)
	// Feasibility pre-flight on exactly the middle sub-database the inner
	// 1-cluster stage will see — the same check FindCluster gets, run
	// before any budget is charged. values is kept (or cut) sorted, so the
	// middle extraction is a slice, not a fresh sort.
	plaus := func(p core.Params) bool {
		return core.ZeroClusterPlausible(core.IntPointMiddleSorted(values, innerN), p)
	}
	if err := checkFeasible(plaus, cprm, 1, q, ds.opts.GridSize); err != nil {
		return 0, err
	}
	ctx, qt := beginQuery(ctx, "interior")
	rctx := qt.stage("reserve")
	rsv, err := ds.reserve(rctx, Budget{Epsilon: 2 * q.Epsilon, Delta: 2 * q.Delta})
	qt.endStage(statStageReserve, &qt.stats.Reserve)
	if err != nil {
		return 0, err
	}
	release := ds.acquireScratch(&cprm)
	defer release()
	cprm.Ctx = qt.stage("mechanism")
	res, err := core.IntPoint(q.rng(), values, core.IntPointParams{
		InnerN:  innerN,
		Cluster: cprm,
		Privacy: dp.Params{Epsilon: q.Epsilon, Delta: q.Delta},
		Beta:    q.Beta,
	})
	qt.endStage(statStageMechanism, &qt.stats.Mechanism)
	qt.stage("commit")
	cerr := rsv.Commit()
	qt.endStage(statStageCommit, &qt.stats.Commit)
	if err == nil {
		err = cerr
	}
	qt.finish(q.Stats)
	if err != nil {
		return 0, err
	}
	return ds.opts.fromUnit(res.Point), nil
}

// checkFeasible pre-flights the t/ε regime at the per-round budget (rounds
// > 1 for FindClusters, whose KCover splits (ε, δ) across rounds — each
// round must be feasible on its share, not on the total). Below the floor
// the RecConcave promise Γ and the stability release thresholds — all
// scaling as (1/ε)·log(1/δ) — are unreachable, and the run would fail
// after spending its budget with an opaque promise violation (the flaky
// t ≈ Γ regime). The one escape is a duplicate-dominated dataset, whose
// radius-zero path bypasses the search: plausible reports whether the
// caller's data could fire it at the per-round budget (a
// core.ZeroClusterPlausible closure over the frame the query runs on).
func checkFeasible(plausible func(core.Params) bool, prm core.Params, rounds int, q QueryOptions, gridSize int64) error {
	if rounds < 1 {
		rounds = 1
	}
	check := prm
	check.Privacy = check.Privacy.Split(rounds)
	if floor := check.MinFeasibleT(); float64(prm.T) < floor && !plausible(check) {
		f := int(math.Ceil(floor))
		budget := fmt.Sprintf("ε=%g, δ=%g", q.Epsilon, q.Delta)
		if rounds > 1 {
			budget = fmt.Sprintf("per-round ε=%g, δ=%g (budget split across %d rounds)",
				q.Epsilon/float64(rounds), q.Delta/float64(rounds), rounds)
		}
		return fmt.Errorf(
			"%w: t=%d is below the feasible floor ≈%d for %s, β=%g, |X|=%d — raise t to ≥ %d, raise ε, or relax δ/β",
			ErrInfeasible, prm.T, f, budget, q.Beta, gridSize, f)
	}
	return nil
}
