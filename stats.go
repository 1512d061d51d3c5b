package privcluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"privcluster/internal/obs"
)

// WithTrace returns a context that traces the query run under it: the
// dataset opens a hierarchical span tree (reserve, index build, mechanism
// stages, commit; per-shard sweeps and SVT repetitions inside), the trace's
// 16-byte ID propagates to remote shard servers over the wire protocol, and
// the collected stages come back in QueryStats (QueryOptions.Stats).
// Tracing records only durations, counts and sizes — never coordinates,
// data values, or noise magnitudes — and never changes releases: the same
// seed gives bit-identical results traced or not.
//
// Without WithTrace (the default) tracing is off and queries skip all span
// bookkeeping; only the always-on aggregate stage histograms in the process
// metrics registry are recorded.
func WithTrace(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return obs.ContextWith(ctx, obs.NewTrace())
}

// QueryStage is one span of a traced query's stage breakdown: a name from
// the span taxonomy, its depth in the tree, its duration, and its operation
// counters (never data values).
type QueryStage struct {
	Name     string
	Depth    int
	Duration time.Duration
	Counters map[string]int64
}

// QueryStats is the per-query measurement substrate: coarse stage timings
// (always collected — they cost a few clock reads and atomic histogram
// updates, no allocations), plus the full span tree when the query context
// carried a trace (WithTrace). Retrieve it via QueryOptions.Stats. Stats
// never affect releases.
type QueryStats struct {
	// Query names the query kind: "cluster", "kcover", or "interior".
	Query string
	// TraceID is the hex trace ID when the query was traced, else "".
	TraceID string
	// Total is the query's wall time inside the Dataset call.
	Total time.Duration
	// Reserve is the admission stage: the budget hold (for an external
	// Admitter such as the daemon's durable ledger, this includes the
	// fsync).
	Reserve time.Duration
	// Build is the ball-index resolution stage: a cache hit costs
	// microseconds, a cold build dominates the query.
	Build time.Duration
	// ColdIndex reports whether this query ran the handle's one index
	// build rather than reusing the built index.
	ColdIndex bool
	// Mechanism is the private mechanism stage: LStep sweep, RecConcave,
	// SVT repetitions, noise draws — everything between admission and
	// settlement.
	Mechanism time.Duration
	// Commit is the budget settlement stage.
	Commit time.Duration
	// Stages is the flattened span tree (pre-order) of a traced query; nil
	// when the query ran without WithTrace.
	Stages []QueryStage
}

// Tree renders the traced stage breakdown as indented text, one span per
// line — the human-readable form cmd/onecluster -trace prints. Untraced
// stats render the coarse stages only.
func (s QueryStats) Tree() string {
	var b strings.Builder
	if s.TraceID != "" {
		fmt.Fprintf(&b, "trace %s\n", s.TraceID)
	}
	fmt.Fprintf(&b, "query/%s %v (reserve %v, build %v, mechanism %v, commit %v, cold=%v)\n",
		s.Query, s.Total, s.Reserve, s.Build, s.Mechanism, s.Commit, s.ColdIndex)
	for _, st := range s.Stages {
		if st.Depth == 0 {
			continue // the root duplicates the summary line above
		}
		fmt.Fprintf(&b, "%s%-24s %12v", strings.Repeat("  ", st.Depth), st.Name, st.Duration)
		if len(st.Counters) > 0 {
			keys := make([]string, 0, len(st.Counters))
			for k := range st.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, st.Counters[k])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// stageBuckets are the per-stage latency histogram bounds in seconds:
// admission and commit are fsync-scale (sub-millisecond to tens of ms),
// mechanisms run milliseconds to seconds, cold sharded builds seconds.
var stageBuckets = []float64{0.0001, 0.0005, 0.0025, 0.01, 0.05, 0.25, 1, 5}

// The always-on query-stage histograms and index-cache counters, resolved
// once into the process registry so the warm path is a few atomics with
// zero allocations.
var (
	statStageReserve = obs.Default.Histogram("privcluster_query_stage_seconds",
		"Query stage latency (reserve, build, mechanism, commit).", stageBuckets, "stage", "reserve")
	statStageBuild = obs.Default.Histogram("privcluster_query_stage_seconds",
		"Query stage latency (reserve, build, mechanism, commit).", stageBuckets, "stage", "build")
	statStageMechanism = obs.Default.Histogram("privcluster_query_stage_seconds",
		"Query stage latency (reserve, build, mechanism, commit).", stageBuckets, "stage", "mechanism")
	statStageCommit = obs.Default.Histogram("privcluster_query_stage_seconds",
		"Query stage latency (reserve, build, mechanism, commit).", stageBuckets, "stage", "commit")

	statIndexCacheHit = obs.Default.Counter("privcluster_index_cache_total",
		"Ball-index lookups by result (miss: this query built the index).", "result", "hit")
	statIndexCacheMiss = obs.Default.Counter("privcluster_index_cache_total",
		"Ball-index lookups by result (miss: this query built the index).", "result", "miss")
	statLStepCacheHit = obs.Default.Counter("privcluster_lstep_cache_total",
		"Per-target LStep memo lookups by result.", "result", "hit")
	statLStepCacheMiss = obs.Default.Counter("privcluster_lstep_cache_total",
		"Per-target LStep memo lookups by result.", "result", "miss")
)

// queryTimer threads the coarse stage clock (and, when tracing, the stage
// spans) through one query. It lives on the caller's stack: the untraced
// path allocates nothing.
type queryTimer struct {
	stats QueryStats
	start time.Time
	mark  time.Time
	ctx   context.Context // carries the root span while tracing
	root  *obs.Span
	cur   *obs.Span
}

// beginQuery opens the query's root span (a no-op without a trace in ctx)
// and starts the wall clock. The returned context carries the root span and
// must be the one later stages and the mechanism run under.
func beginQuery(ctx context.Context, name string) (context.Context, queryTimer) {
	qt := queryTimer{start: time.Now(), ctx: ctx}
	qt.stats.Query = name
	// Concatenate the span name only when a trace is live — the untraced
	// fast path must not allocate.
	if tr := obs.FromContext(ctx); tr != nil {
		qt.ctx, qt.root = obs.StartSpan(ctx, "query/"+name)
		qt.stats.TraceID = tr.ID().String()
	}
	return qt.ctx, qt
}

// stage opens the named stage: marks the clock and, when tracing, a child
// span. The returned context runs the stage's inner work so deeper spans
// nest under it.
func (qt *queryTimer) stage(name string) context.Context {
	qt.mark = time.Now()
	sctx, s := obs.StartSpan(qt.ctx, name)
	qt.cur = s
	return sctx
}

// endStage closes the open stage into the given histogram and duration slot.
func (qt *queryTimer) endStage(h *obs.Histogram, d *time.Duration) {
	el := time.Since(qt.mark)
	h.Observe(el.Seconds())
	*d = el
	qt.cur.End()
	qt.cur = nil
}

// finish settles the totals, closes the root span and, when the caller
// passed a QueryOptions.Stats out-pointer, captures the traced stage tree
// and stores the stats there.
func (qt *queryTimer) finish(out *QueryStats) {
	qt.cur.End() // tolerate an abandoned stage on error paths
	qt.stats.Total = time.Since(qt.start)
	qt.root.End()
	if out == nil {
		return
	}
	if qt.root != nil {
		infos := qt.root.Spans()
		qt.stats.Stages = make([]QueryStage, len(infos))
		for i, in := range infos {
			qt.stats.Stages[i] = QueryStage{
				Name:     in.Name,
				Depth:    in.Depth,
				Duration: time.Duration(in.DurUS) * time.Microsecond,
				Counters: in.Counters,
			}
		}
	}
	*out = qt.stats
}
