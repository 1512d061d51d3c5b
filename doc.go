// Package privcluster is a from-scratch Go implementation of
//
//	Kobbi Nissim, Uri Stemmer, Salil Vadhan.
//	"Locating a Small Cluster Privately." PODS 2016.
//
// It provides (ε, δ)-differentially private solutions to the 1-cluster
// problem: given n points in a discretized d-dimensional unit cube and a
// target size t, find a small ball containing at least ≈ t of the points,
// without leaking any individual point. The headline algorithm — GoodRadius
// followed by GoodCenter (Theorem 3.2 of the paper) — handles minority-size
// clusters (t sublinear in n and only 2^{O(log*|X|)} in the domain size) and
// approximates the optimal radius within O(√log n), independent of the
// dimension.
//
// On top of the 1-cluster solver the package exposes the paper's derived
// constructions: k-ball covering (Observation 3.5), private interior-point
// location (Algorithm 3, the reduction behind the Section 5 lower bound),
// and the sample-and-aggregate compiler (Algorithm SA, Section 6) that turns
// arbitrary non-private analyses into private ones.
//
// # Quick start
//
//	points := ... // [][]float64 in [0,1]^d
//	cluster, err := privcluster.FindCluster(points, 400, privcluster.Options{
//		Epsilon: 4, Delta: 0.05, Seed: 1,
//	})
//	// cluster.Center, cluster.Radius describe a ball holding ≈ 400 points.
//
// The module path is privcluster (see go.mod); import the root package as
// `import "privcluster"`.
//
// # The Dataset handle
//
// The free functions above are one-shot: every call re-validates, rescales
// and quantizes the points and rebuilds the ball index — the dominant
// preprocessing cost at n ≥ 10⁵ — and nothing stops a caller from silently
// over-spending a privacy budget across repeated calls on the same data.
// A serving process should open a reusable handle instead:
//
//	ds, err := privcluster.Open(points, privcluster.DatasetOptions{
//		Budget: privcluster.Budget{Epsilon: 3, Delta: 3e-6},
//	})
//	c1, err := ds.FindCluster(ctx, 400, privcluster.QueryOptions{Epsilon: 1, Delta: 1e-6})
//	c2, err := ds.FindCluster(ctx, 500, privcluster.QueryOptions{Epsilon: 1, Delta: 1e-6})
//
// Open performs validation, domain rescaling and grid quantization once.
// The first query lazily builds the handle's one ball index from the
// handle's own options — the index resolves automatic Workers against
// GOMAXPROCS once, at that build — and keeps it, along with the
// radius stage's L(·, S) step function per queried t, so warm queries skip
// preprocessing entirely — BenchmarkDatasetReuse measures the drop at
// n = 100k (seconds → milliseconds). Under the same seed a handle query
// releases bit-for-bit what the free function releases; the free
// functions are in fact thin wrappers that open a single-use, budget-less
// handle.
//
// Budget semantics: the handle carries a total (ε, δ) budget from which
// each query deducts its cost — FindCluster and FindClusters cost their
// QueryOptions (ε, δ) (the k-cover splits its share internally), and
// InteriorPoint costs (2ε, 2δ), the Theorem 5.3 two-stage composition. A
// query that no longer fits is refused with a *BudgetError wrapping
// ErrBudgetExhausted (carrying total/spent/requested) before any mechanism
// runs, and Dataset.Remaining/Spent expose the accounting. Under basic
// composition (Theorem 2.1) the handle's releases jointly satisfy
// (ε, δ)-DP at the budget.
//
// # Serving and durable budgets
//
// The handle's own Budget is in-memory and per-handle: two handles opened
// over the same individuals' data each enforce only their own budget (the
// real-world guarantee is their composition, the sum), and a process
// restart forgets everything spent. For a single analysis process that is
// fine; for a server it is not — a privacy budget is only a guarantee if
// it survives crashes and spans every process that can touch the data.
//
// DatasetOptions.Admitter is the seam that fixes this: a non-nil Admitter
// replaces the in-handle gate, and every query's cost flows through a
// two-phase Reserve → Commit/Release protocol — reserved before any
// expensive work, committed once the mechanism has run (even on error:
// noise may have been drawn), released only when the mechanism provably
// never ran. One admission authority can gate many handles, with the
// per-query principal carried in the query context rather than on the
// handle.
//
// cmd/privclusterd packages the full stack: an HTTP/JSON daemon serving
// named datasets to API-key principals, each principal's (ε, δ) account
// kept in a durable, crash-safe ledger (an fsynced, checksummed
// append-only journal with snapshot compaction — internal/ledger) that
// the daemon holds under an exclusive process lock. A refusal therefore
// survives restarts and crashes — recovery conservatively commits any
// hold that was in flight, so a crash can lose a query's answer but never
// un-spend its budget — and a second daemon pointed at the same ledger
// directory refuses to start rather than jointly over-spend.
// examples/daemon proves the restart property end to end in CI. The
// daemon serves immutable datasets only; it has no mutation route.
// Migration: drop the "mutable" dataset key and the "at_epoch" query
// field, which the daemon now rejects as unknown fields (400 bad_request
// for a query); the 410 epoch_retired status went with them.
//
// Queries take a context.Context. Cancellation is threaded through the
// long-running inner loops — the cell index's bulk-count worker pools, the
// SVT repetition loop in GoodCenter, the RecConcave recursion, KCover's
// rounds — so deadlines abort in-flight queries promptly without leaking
// goroutines. A context already cancelled at query entry consumes no
// budget; cancelling mid-flight does not refund the charge (noise may
// already have been drawn). The handle is safe for concurrent queries: the
// accountant is mutex-guarded, the index is built exactly once per handle,
// and the budget can never be over-spent by racing queries.
//
// Independent queries on one handle batch: Dataset.FindClustersBatch runs
// a []Query concurrently against the shared cached index under the
// handle's single budget, with concurrency bounded by the Workers option.
// Each query is validated, charged and seeded exactly as the equivalent
// sequential call — seeded batches release bit-identical clusters to
// one-at-a-time queries; only budget admission order is
// scheduling-dependent when the remaining budget cannot cover the whole
// batch.
//
// # Scaling and index backends
//
// The pipeline's preprocessing runs on one of two interchangeable ball
// indexes (Options.IndexPolicy):
//
//   - IndexExact materializes all n² pairwise distances. Exact counts and
//     score function, Θ(n²) memory — viable for n in the low thousands.
//   - IndexScalable buckets points into a sorted cell grid per radius
//     scale and resolves ball counts by per-cell candidate pruning: O(n)
//     memory per radius scale and near-linear preprocessing, at the cost of a bounded
//     approximation in the radius search (the released radius can be a
//     small constant factor wider; privacy is entirely unaffected).
//   - IndexAuto (default) picks IndexExact up to a few thousand points and
//     IndexScalable beyond, so FindCluster handles 10⁵–10⁶ points without
//     ever allocating the quadratic matrix.
//
// # Partition semantics
//
// A handle without a Placement builds exactly one in-process ball index,
// whatever n and GOMAXPROCS are. Data partitions exist only on shard
// servers (DatasetOptions.Placement): the points are split into one
// partition per placement partition — by a Z-order space-filling curve,
// so partitions are spatially compact. Each partition counts the rows it
// owns against all rows, so each ladder level of the L̂ sweep is answered
// by scattering the partitions' capped counts into global order, each
// global slot written by exactly one partition. Two facts make
// partitioning invisible to everything above it:
//
//   - Whether a point contributes to a cell-granularity count depends only
//     on its own position and the query point, never on which points
//     share the query point's partition — so each owned row's count is
//     exactly the local index's count of that row, and the estimated L̂ is
//     the same function of the dataset as the local index's. The
//     sensitivity-2 argument of Lemma 4.5 (the heart of GoodRadius's
//     privacy analysis) is therefore byte-for-byte unchanged:
//     partitioning needs no new privacy accounting.
//   - Every partition is pinned to the global radius ladder, so all
//     partitions (and the local index) resolve each ladder level at the
//     same scale.
//
// Consequently releases over a Placement are bit-identical to the local
// handle's under the same seed — a tested guarantee, not an approximation.
// A remote shard answers "how many points count toward each of my rows'
// balls at this ladder level", and the client scatters — see "Remote
// shards" below.
//
// Local sharding is gone: splitting one process's index into partitions
// ran slower and allocated more than the one index it split (the shards
// shared the same worker pool and had nothing to parallelize). Migration:
// Options.Shards — drop the field; DatasetOptions.Shards — deprecated and
// ignored, drop it; cmd/onecluster -shards — drop the flag;
// privclusterd's "shards" dataset key — drop it (the config loader now
// rejects it as an unknown field). The internal names
// core.ShardAutoMinN, core.Profile.Shards and geometry.NewShardedIndexFrame
// went with them (geometry.NewShardedIndexBackends with
// geometry.NewLocalShard builds an in-process partitioned index for
// tests).
//
// GoodCenter's box-partition loop — one O(n·k) count pass per
// sparse-vector repetition — runs on a packed-key engine: per-axis cell
// indices are bit-packed into a single uint64 (hash-combined when they
// exceed 64 bits), and every histogram and buffer is reused across
// repetitions, with the count pass fanned out over Options.Workers
// goroutines. Boxes are enumerated in cell-coordinate order, so the key
// encoding never changes a release; a hashed key can merge two boxes only
// on a ≈ 2⁻⁶⁴-probability collision (a utility blip, never a privacy one).
//
// # Remote shards
//
// The owned-row decomposition above is location-transparent, and
// DatasetOptions.Placement exercises that: with shard-server addresses
// configured (one replica set per partition; a partition listing one
// address is a plain connection), the handle's ball index is built with one
// shard per partition, each served by a cmd/shardserver daemon over a
// versioned, length-prefixed binary wire protocol (internal/transport). The
// handshake ships the prepared global point set, so every server answers
// from exactly the client's coordinates; after that every bulk query is
// one batched round trip per shard — a PARTIALS request returns the
// capped counts around all n/S rows the shard owns at once, never one
// round trip per point. Releases remain
// bit-identical to local execution under the same seed (the equivalence
// contract survives serialization: coordinates travel as exact IEEE bit
// patterns), which examples/remote re-proves on every CI run. Protocol
// versions are negotiated at handshake; a mismatch fails fast with a typed
// error rather than misparsing frames. Context deadlines and cancellations
// propagate onto connection deadlines, broken connections are re-dialed and
// re-handshaken within a per-call retry budget, and a shard server dying
// mid-query surfaces a typed transport error — never a hang and never a
// partial count. Dataset.Close releases the connections.
//
// Cost model — when do remote shards beat local cores? The per-query
// preprocessing cost is the BuildLStep sweep: roughly
// L·n·(2·CellsPerRadius+2)^d / C point-cell operations for L ladder
// levels on C cores, and the sweep's levels are sequential. A point-cell
// operation is one center-distance test, and the candidate cells come in
// runs of the sorted level, each found by galloping from a per-worker
// cursor (usually a compare or two, since source cells are visited in
// sorted order) rather than by a binary search over the level. A source
// cell of isolated points (no other distinct point within r + side·√d/2:
// most cells at the fine levels) costs O(1) per point. Privacy fixes
// the ladder, so every fresh sweep visits every level up to saturation;
// the cell level at each scale is built once per index (an O(n·d) radix
// sort into one flat sorted array) and then kept, so only the first sweep
// over an index — a shard server's, an epoch view's, the Dataset's
// cached one — pays the builds, at O(n) resident memory per level. Remote
// execution replaces C local cores with S servers, each joining its n/S
// owned rows against an index over all n rows, and adds, per level, one
// round trip carrying 4n/S bytes of counts per shard, which travel
// through buffers the sweep and each connection own and reuse, never a
// fresh copy per layer (plus the one-off handshake of 8nd bytes per
// shard). Remote wins when per-level compute dominates transport:
// n·(2c+2)^d/S · t_op ≫ RTT + 4n/(S·bandwidth). At n = 10⁵ a level is a
// few hundred kilobytes against seconds of compute, so the crossover sits
// far below datacenter RTTs — the constraint is compute per level, not the
// wire. Conversely, on a single machine the local index skips
// serialization entirely and keeps one cell structure where each remote
// server builds two, one over all rows and one over its own
// (BenchmarkRemoteLoopback quantifies both overheads by running the
// protocol against servers in the same process). FindClusters' k-cover
// runs round 1, the full-dataset cost, on the handle's index — remote on a
// Placement handle. Each later round (k > 1) keeps the uncovered remainder
// as row ids into that index's frame and builds a fresh local index over
// those rows; releases are identical either way.
//
// Trust boundary: shard servers hold raw data points and answer
// non-private counting queries about them — they sit inside the trust
// boundary, on the private side of the differential-privacy guarantee,
// which applies to the released outputs of the client pipeline and not to
// intra-cluster traffic or server memory. Deploy shard servers in the same trust domain
// as the data owner, and protect the links with the deployment's
// transport security (TLS/mTLS tunnels or a private network); the wire
// protocol itself is deliberately plain TCP and does not pretend to add
// privacy.
//
// # Replication and failover
//
// A Placement partition may list several replica addresses, and then shard
// server death stops being fatal: the partition's calls go to the first
// healthy replica, a failed call is retried on a sibling (the caller sees
// an error only after every replica of the partition has refused), and
// replicas marked down are re-probed in the background and rejoin the
// preference order when they recover. What makes this replication scheme
// almost embarrassingly simple is the query model: every bulk call a shard
// answers ("count the points within r of each of your rows") is a pure,
// deterministic read of an immutable point set, so any replica holding the
// partition's points returns the byte-identical answer and failover needs
// no consensus, no write-ahead state, and no reconciliation — switching
// replicas mid-sweep cannot be observed in the release, which
// examples/replicated re-proves in CI by hard-killing a replica mid-query.
// For the same reason hedged reads are safe: with Placement.HedgeDelay
// set, a straggling call is re-issued to a sibling after the delay and the
// first answer wins — the loser's answer is discarded, never summed, so
// hedging trades duplicated shard compute for tail latency and nothing
// else (BenchmarkReplicatedLoopback quantifies both the idle-standby cost,
// which is near zero since standby replicas are dialed lazily, and the
// hedging duplication). Health marks are a preference order, not a
// correctness input: a stale mark costs a wasted connection attempt or a
// failover hop, never a wrong count. Two boundaries follow from the model.
// Mutable handles require single-replica partitions — epoch sessions are
// connection-scoped, mutations are not idempotent, and silently failing
// over a stream would fork the epoch history. And replication does not
// shrink the trust boundary: every replica holds the partition's raw
// points, so each replica server must sit in the data owner's trust
// domain, and adding replicas widens the deployment surface that must be
// protected (the guarantee on released outputs is unaffected either way).
//
// # Streaming ingestion
//
// DatasetOptions.Mutable opens a handle whose point set can grow and
// shrink after Open: Append adds a batch of points (returning stable ids),
// Delete removes rows by id, and each successful mutation advances the
// handle's epoch by exactly one — Open is epoch 1. Queries run against
// epoch snapshots: by default the epoch current when the query pins its
// view, or an explicit one via QueryOptions.AtEpoch. The contract is the
// same equivalence that anchors partitioning and the wire protocol: a query
// pinned at epoch E releases bit-identically (same seed, same outcome,
// success or failure) to a fresh Open on exactly the epoch-E point set —
// regardless of what the mutator does meanwhile, of Merge timing, and of
// whether the index is local or partitioned over shard servers. examples/ingest re-proves
// this in CI against live shard servers.
//
// Internally a snapshot is a row-prefix view: appends only ever extend the
// flat frame, so epoch E is "the first n_E rows", indexed as a frozen base
// generation plus a small delta index over the rows appended since the last
// merge — a row's count does not depend on how the rows are grouped, the
// fact shard servers rest on too, so the split is invisible to releases. Merge (also triggered
// automatically once enough delta rows accumulate) folds the delta into a
// fresh base off the query path; it is a serving-cost knob, never a
// semantic one. Each mutable index keeps an epoch chain: the newest swept
// epoch's uncapped count block per ladder level (4·n bytes each, serving
// every t) and its duplicate table. A newer epoch extends both through the
// rows appended since (every row against the new rows, walked from the
// new rows' cells, and the new rows against the old ones), so its L-step
// sweep pays for its batch, with bit-identical counts and releases; merges
// keep the chain. A level runs
// one full pass instead after a delete, on a pin older than the chain's
// head, and where the head never swept. Deletes compact the storage and
// therefore retire all older epochs: a query already holding its pin keeps
// answering, but a new pin of a pre-delete epoch fails with ErrEpochRetired
// (wrapped, with the epoch) unless the handle's entry for it is still
// cached. Snapshots are cached per epoch and built single-flight at two
// levels: the handle keeps one entry for each of its four most recently
// pinned epochs, which every query kind at that epoch shares, and every
// mutable index — the in-process one, each shard server's session and a
// Placement handle's coordinator — keeps one epoch log. The log decides
// which rows an epoch holds, when it retires, and which rows the domain
// check admits (finite coordinates whose bounding-box diagonal stays within
// the pinned ladder top; anything else is refused, never re-laddered), and
// it caches the eight most recently pinned epoch views. A shard server
// keeps one log for its owned rows and all rows — every appended row
// reaches every server's all-row store and its owner's owned store — so
// its two row sets cannot reach different epochs. A 1-D handle's raw values, which InteriorPoint
// runs on, follow the epoch entry: the entry holds the prefix of the
// handle's value mirror that its snapshot's rows name. BenchmarkAppendMerge (gated in CI)
// tracks the steady-state append → query → delete/merge cycle, and
// BenchmarkChainExtend (gated too) one extension.
//
// Privacy under mutation: the (ε, δ) ledger never moves on Append, Delete,
// or Merge — only releases spend. That is not an accounting shortcut but
// the sensitivity argument itself: each mechanism's differential-privacy
// analysis is per-release on the neighboring-database relation of the
// point set the pinned epoch holds, so mutating the data between releases
// changes which database the next release is private about, not how much
// budget it costs. The caveat is the same as for any interactive DP
// system: the budget bounds leakage about the rows present in the queried
// epochs; an adversary who also controls the mutation stream learns
// nothing extra from mutations alone, since mutations produce no output.
//
// Mutable sessions over a Placement (single-replica partitions only) are
// connection-scoped: mutations are not idempotent, so a broken shard
// connection is never silently re-dialed mid-epoch — the handle turns
// sticky-broken and every subsequent operation reports the failure rather
// than risking a cross-epoch answer.
// Open a fresh handle to resume (re-shipping the current rows), and treat
// transport failures on mutable remote handles as fatal.
//
// # Memory model
//
// The data-bearing layers share one representation: internal/vec.Frame, a
// single contiguous []float64 holding n points of dimension d at stride d.
// Dataset.Open quantizes straight into a frame;
// index construction, the cell and distance indexes' count sweeps, shard
// Gather/partition, GoodCenter's projection and rotation passes, the
// k-means Lloyd loops, and the wire protocol's OPEN payload all run over
// that flat buffer (or no-copy row views of it) rather than n separate
// row allocations. Two contracts follow:
//
//   - Arithmetic is unchanged. The frame kernels compute distances in the
//     same float64 operation order as the per-point code they replaced, so
//     the layout is invisible to releases: seeded outputs are bit-identical
//     to the per-row representation, and every equivalence suite (local,
//     partitioned, remote loopback) pins that.
//
//   - Warm queries reuse buffers instead of allocating. A Dataset handle
//     pools per-query scratch (rotation buffers, box keys, count tables,
//     member lists) and lends it through the pipeline; with the index
//     cached, a warm FindCluster allocates a few tens of kilobytes instead
//     of rebuilding megabytes of per-point structures per query
//     (BenchmarkDatasetReuse/warm, gated in CI on ns/op, allocs/op, and
//     B/op). Buffer reuse never changes releases — only where the
//     deterministic intermediates live.
//
// Points are snapped onto the grid at Open and Append: each coordinate is
// clamped to the domain [Min, Max] and rounded to the nearest grid value.
// A NaN coordinate clamps to Min like any other out-of-domain value, so no
// NaN reaches a distance or a count.
//
// Float32 handles: drop the option (frames store float64 only).
//
// # Errors and the feasible t/ε regime
//
// The private selections inside the pipeline release results only above
// noise thresholds that scale as (1/ε)·log(1/δ): GoodRadius's RecConcave
// search demands a quality promise Γ (Theorem 4.3's 8^{log*|X|} expression,
// capped at a fraction of t by the default profile), and its block release
// plus GoodCenter's stability-based box choice each need counts of order
// (1/ε)·log(1/δ) to fire. When t is within a small factor of Γ the run
// fails regardless of the data — historically as a bare, flaky promise
// violation after the budget was spent.
//
// Two mechanisms make that regime visible:
//
//   - Every entry point pre-flights the parameters and returns an error
//     wrapping ErrInfeasible (with the concrete floor and which of t/ε/δ/β
//     to adjust) when the cluster target sits below the feasibility floor:
//     FindCluster and FindClusters (evaluated at the per-round budget,
//     since k-cover splits (ε, δ) across rounds), InteriorPoint (whose
//     inner 1-cluster stage targets innerN/2 on the middle sub-database),
//     and Aggregate (whose target αk/2 is checked on the evaluations just
//     before the budget-spending aggregation). The floor is a pure function
//     of the parameters; the only data consulted is the duplicate
//     structure, so a dataset with ≈ t duplicated points (which succeeds
//     through the radius-zero path at any t) is never rejected. The
//     uncapped paper profile (Options.Paper) is exempt: its infeasibility
//     at practical scale is categorical and documented, not flaky. As a
//     reference point, the defaults (ε = 1, δ = 10⁻⁶, |X| = 2¹⁶) put the
//     floor near t ≈ 2000.
//   - Promise failures that do occur carry a typed diagnostic
//     (internal/recconcave.PromiseError) whose message reports the promise
//     Γ, the recursion depth, the per-level (ε, δ), and the t − 4Γ slack —
//     distinguishing "no cluster exists" from "this regime is infeasible".
//
// See the examples/ directory for runnable programs (examples/scale runs
// n = 200,000; examples/serving demonstrates the handle's amortization,
// budget accounting and deadlines; examples/remote self-checks the shard
// transport's equivalence; examples/ingest self-checks the streaming
// epoch model against live shard servers; examples/daemon proves the
// serving daemon's budgets survive a restart), and cmd/experiments, which
// regenerates every table and figure of the paper's experiments.
//
// # Observability
//
// Every query can be traced and measured end to end without changing
// what it releases. Run a query under WithTrace and the dataset opens a
// hierarchical span tree — reserve, index build, the mechanism stages
// (LStep sweep, RecConcave, SVT repetitions, the noisy average), commit
// — with per-stage durations and operation counters; retrieve it via
// QueryOptions.Stats and render it with QueryStats.Tree. Migration:
// Dataset.LastStats is gone (concurrent queries raced on "last") — pass a
// *QueryStats as QueryOptions.Stats instead. The trace's 128-bit ID
// travels with the query: over the wire protocol to every shard server
// (which announces it on its structured log, so one query is greppable
// across machines), and in privclusterd as the X-Trace-Id response
// header, with the span tree fetchable back from GET /v1/trace/{id}.
// cmd/onecluster -trace prints the tree for any execution mode.
//
// Aggregate metrics are always on and allocation-free: process-wide
// Prometheus-text families (privcluster_query_stage_seconds,
// privcluster_shard_fanout_seconds, index/LStep cache and replica
// failover/hedge counters) exposed on privclusterd's /metrics alongside
// its own privclusterd_* request, budget and ledger-fsync families, and
// on cmd/shardserver's -admin listener. Both daemons also serve
// net/http/pprof on an opt-in admin address ("admin_listen" in the
// daemon config, -admin on shardserver).
//
// Two invariants bound the machinery. Instrumentation never carries
// data: spans, metrics, logs and trace JSON hold stage names, durations,
// counts, sizes and addresses — never point coordinates, dataset values
// or noise magnitudes (tested by scraping every surface and grepping for
// planted coordinates). And instrumentation never touches the privacy
// analysis: tracing reads no randomness and perturbs no release — the
// same seed yields bit-identical results traced or untraced, local or
// remote.
//
// # Privacy disclaimer
//
// This is a research reproduction. Noise is generated with math/rand
// (seedable for reproducibility — which a production DP deployment must
// never allow) and floating-point side channels are not mitigated.
package privcluster
