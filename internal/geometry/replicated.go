package geometry

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privcluster/internal/obs"
)

// Replica routing event counters: how often calls failed over to a
// sibling, how the hedged-read race resolved, and how many down replicas
// the background prober brought back. Cheap atomics, resolved once.
var (
	statReplicaFailover = obs.Default.Counter("privcluster_replica_events_total",
		"Replica routing events (failover retries, hedge outcomes, probe recoveries).", "event", "failover")
	statReplicaHedgeFired = obs.Default.Counter("privcluster_replica_events_total",
		"Replica routing events (failover retries, hedge outcomes, probe recoveries).", "event", "hedge_fired")
	statReplicaHedgeWon = obs.Default.Counter("privcluster_replica_events_total",
		"Replica routing events (failover retries, hedge outcomes, probe recoveries).", "event", "hedge_won")
	statReplicaHedgeLost = obs.Default.Counter("privcluster_replica_events_total",
		"Replica routing events (failover retries, hedge outcomes, probe recoveries).", "event", "hedge_lost")
	statReplicaProbeRecovered = obs.Default.Counter("privcluster_replica_events_total",
		"Replica routing events (failover retries, hedge outcomes, probe recoveries).", "event", "probe_recovered")
)

// ReplicaDialer establishes the connection to one replica of a shard
// partition. Every replica of a partition must serve the identical
// ShardConfig — the dialers a placement layer constructs all close over
// the same config, which is what makes the replicas interchangeable: each
// bulk query is a pure deterministic function of (config, epoch, request),
// so any replica's answer is bit-identical to any other's.
type ReplicaDialer func(ctx context.Context) (ShardBackend, error)

// ReplicatedShardOptions tunes one ReplicatedShard's failover behavior.
// The zero value gives plain failover: no hedging, health re-probing at
// the default interval, no custom probe.
type ReplicatedShardOptions struct {
	// HedgeDelay arms hedged reads: when a bulk call has not answered
	// after this long, the same request is re-issued to the next sibling
	// replica and the first answer wins. 0 disables hedging (the
	// default — hedging is an opt-in tail-latency trade that spends
	// duplicate shard compute). Safe at any value: partials are
	// deterministic pure reads, so the winner's answer is bit-identical
	// to the loser's and the loser is simply discarded — never summed.
	HedgeDelay time.Duration
	// ProbeInterval is how often the background health checker re-probes
	// replicas marked down (0 = the 2s default; negative disables the
	// prober — down replicas are then only retried as a last resort when
	// every healthy sibling has failed a call).
	ProbeInterval time.Duration
	// Probe, when set, is the lightweight liveness check the health
	// checker runs against a down replica (by index); returning nil marks
	// it up again. When nil, the prober re-dials the replica's backend.
	// Marking a still-dead replica up is harmless — health is a
	// preference order for call routing, never a correctness input.
	Probe func(ctx context.Context, replica int) error
}

// defaultProbeInterval is the health checker's cadence when
// ReplicatedShardOptions.ProbeInterval is zero.
const defaultProbeInterval = 2 * time.Second

// probeTimeout caps one liveness probe so a black-holed replica cannot
// stall the checker loop.
const probeTimeout = 2 * time.Second

// replica is one member of a ReplicatedShard's replica set: its dialer,
// the lazily established backend, and its health mark. mu serializes use
// of the backend — ShardBackend implementations only promise sequential
// reuse, and hedged calls run on distinct replicas concurrently.
type replica struct {
	dial ReplicaDialer
	down atomic.Bool

	mu sync.Mutex
	be ShardBackend
}

// ReplicatedShard serves one shard partition from a replica set: it
// implements ShardBackend by routing every bulk call to a healthy replica,
// failing a broken call over to the next sibling (the error surfaces only
// after every replica has been exhausted), optionally hedging a straggling
// call against a sibling, and re-probing down replicas in the background.
//
// Failover and hedging cannot change releases: every ShardBackend method
// is a pure read, a deterministic function of the shard's (identical
// across replicas) configuration and the request, so whichever replica
// answers, the counts are bit-identical — the DP mechanisms downstream
// consume the same sums and draw the same noise. Which replica computes an
// answer is as invisible to releases as which CPU core does.
//
// Error discipline: a caller's cancellation is returned immediately and
// never triggers failover (the caller gave up — hammering siblings would
// spend their compute for nothing). Every other failure — dial, broken
// connection, protocol violation, a replica-side compute error — marks the
// replica down and moves to the next sibling; when all replicas have
// failed, the first error is returned.
type ReplicatedShard struct {
	replicas []*replica
	opts     ReplicatedShardOptions
	npoints  int

	// base is the shard's lifetime: Close cancels it, aborting in-flight
	// attempts, the prober, and any hedge losers still running.
	base      context.Context
	stop      context.CancelFunc
	proberWG  sync.WaitGroup
	closeOnce sync.Once

	scopeMu sync.Mutex
	scope   *callScope // the last caller context's, kept for its next call
}

// callScope is the cancel scope the calls under one caller context share:
// it dies with that context and with Close. A sweep passes one context to
// every level, so it derives the scope once, not once per call.
type callScope struct {
	parent, ctx context.Context
	cancel      func()
	calls       int // calls in flight under the scope
}

// enter returns ctx's scope: the cached one when ctx is its parent, else a
// new one, which replaces the cached scope unless calls are in flight in
// it — then the new scope is the call's own, released by leave.
func (r *ReplicatedShard) enter(ctx context.Context) *callScope {
	r.scopeMu.Lock()
	defer r.scopeMu.Unlock()
	sc := r.scope
	if sc == nil || sc.parent != ctx {
		cctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(r.base, cancel)
		sc = &callScope{parent: ctx, ctx: cctx, cancel: func() { stop(); cancel() }}
		if old := r.scope; old == nil || old.calls == 0 {
			if old != nil {
				old.cancel()
			}
			r.scope = sc
		}
	}
	sc.calls++
	return sc
}

// leave ends a call under sc, releasing sc if it was a call's own.
func (r *ReplicatedShard) leave(sc *callScope) {
	r.scopeMu.Lock()
	defer r.scopeMu.Unlock()
	if sc.calls--; sc != r.scope {
		sc.cancel()
	}
}

var _ ShardBackend = (*ReplicatedShard)(nil)

// NewReplicatedShard dials the partition's replica set: the first replica
// (in order) that dials successfully becomes the preferred one; replicas
// that fail to dial are marked down, to be re-probed and retried later. If
// no replica dials, the last dial error is returned — a fully dead
// partition fails the index build with a typed error instead of building
// an index that cannot answer.
func NewReplicatedShard(ctx context.Context, dialers []ReplicaDialer, opts ReplicatedShardOptions) (*ReplicatedShard, error) {
	if len(dialers) == 0 {
		return nil, fmt.Errorf("geometry: replicated shard with no replicas")
	}
	base, stop := context.WithCancel(context.Background())
	r := &ReplicatedShard{
		replicas: make([]*replica, len(dialers)),
		opts:     opts,
		base:     base,
		stop:     stop,
	}
	for i, d := range dialers {
		r.replicas[i] = &replica{dial: d}
	}
	ctx = ctxOrBackground(ctx)
	var dialErr error
	dialed := false
	// Siblings of the first live replica dial lazily, on first failover
	// or hedge to them — one live replica is enough to serve, and eager
	// fan-out dials would make every build pay the full replica set's
	// handshakes.
	for _, rep := range r.replicas {
		be, err := rep.dial(ctx)
		if err != nil {
			rep.down.Store(true)
			if dialErr == nil || errors.Is(dialErr, context.Canceled) {
				dialErr = err
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		rep.be = be
		r.npoints = be.NPoints()
		dialed = true
		break
	}
	if !dialed {
		stop()
		return nil, dialErr
	}
	if opts.ProbeInterval >= 0 && len(r.replicas) > 1 {
		interval := opts.ProbeInterval
		if interval == 0 {
			interval = defaultProbeInterval
		}
		r.proberWG.Add(1)
		go r.probeLoop(interval)
	}
	return r, nil
}

// probeLoop is the background health checker: every interval it probes
// the replicas currently marked down and marks the responsive ones up, so
// a recovered replica rejoins the preference order instead of staying a
// last resort forever. It exits when Close cancels the shard.
func (r *ReplicatedShard) probeLoop(interval time.Duration) {
	defer r.proberWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.base.Done():
			return
		case <-ticker.C:
		}
		for ri, rep := range r.replicas {
			if !rep.down.Load() {
				continue
			}
			pctx, cancel := context.WithTimeout(r.base, probeTimeout)
			var err error
			if r.opts.Probe != nil {
				err = r.opts.Probe(pctx, ri)
			} else {
				err = r.dialProbe(pctx, rep)
			}
			cancel()
			if err == nil && r.base.Err() == nil {
				rep.down.Store(false)
				statReplicaProbeRecovered.Inc()
			}
		}
	}
}

// dialProbe is the default liveness check: establish the replica's backend
// if it has none yet (and keep it for the next call). A replica that
// already holds a backend is optimistically marked up — its next call
// either succeeds or re-marks it down, and routing to a dead replica only
// costs a failover hop, never a wrong answer.
func (r *ReplicatedShard) dialProbe(ctx context.Context, rep *replica) error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.be != nil {
		return nil
	}
	be, err := rep.dial(ctx)
	if err != nil {
		return err
	}
	rep.be = be
	return nil
}

// order appends the replica indices to buf in call-preference order:
// healthy replicas first (by index, so routing is deterministic), then the
// down ones as last resorts — a stale down mark must degrade a call to an
// extra hop, never to a refusal while a live replica exists.
func (r *ReplicatedShard) order(buf []int) []int {
	for i, rep := range r.replicas {
		if !rep.down.Load() {
			buf = append(buf, i)
		}
	}
	for i, rep := range r.replicas {
		if rep.down.Load() {
			buf = append(buf, i)
		}
	}
	return buf
}

// bulkCall is one bulk read routed through the replica set: a
// PartialCounts pass at (j, r, limit), or DupCounts when dup is set.
type bulkCall struct {
	epoch Epoch
	j     int
	r     float64
	limit int32
	dup   bool
}

// attempt runs one call on one replica, dialing its backend first if
// needed, serialized under the replica's mutex. Failures mark the replica
// down unless they were induced by the caller's own cancellation.
func (r *ReplicatedShard) attempt(ctx context.Context, ri int, q bulkCall, out []int32) ([]int32, error) {
	rep := r.replicas[ri]
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.be == nil {
		be, err := rep.dial(ctx)
		if err != nil {
			if ctx.Err() == nil {
				rep.down.Store(true)
			}
			return nil, err
		}
		rep.be = be
	}
	counts, err := out, error(nil)
	if q.dup {
		counts, err = rep.be.DupCounts(ctx, q.epoch)
	} else {
		err = rep.be.PartialCounts(ctx, q.epoch, q.j, q.r, q.limit, out)
	}
	if err != nil {
		if ctx.Err() == nil {
			rep.down.Store(true)
		}
		return nil, err
	}
	rep.down.Store(false)
	return counts, nil
}

// result is one attempt's outcome on its way back to do's select loop.
// hedged marks the attempt the hedge timer launched, so the race outcome
// (won/lost) can be attributed in the metrics.
type replicaResult struct {
	counts []int32
	err    error
	hedged bool
}

// do routes one bulk call through the replica set: preferred replica
// first, failover on error, optional hedge after HedgeDelay, first success
// wins; a PartialCounts pass fills out, under the caller context's scope
// (enter), so Close aborts it. Unhedged, the attempts run in turn on the
// calling goroutine, straight into out. Hedged, exactly one answer is ever
// returned — each attempt counts into its own buffer and only the winner's
// is copied into out, so a loser never writes into the caller's buffer and
// duplicated responses cannot double-count.
func (r *ReplicatedShard) do(ctx context.Context, q bulkCall, out []int32) ([]int32, error) {
	ctx = ctxOrBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.base.Err() != nil {
		return nil, fmt.Errorf("geometry: replicated shard used after Close")
	}
	sc := r.enter(ctx)
	defer r.leave(sc)

	span := obs.CurrentSpan(ctx)
	if r.opts.HedgeDelay <= 0 || len(r.replicas) == 1 {
		var buf [8]int
		var firstErr error
		for k, ri := range r.order(buf[:0]) {
			if k > 0 {
				statReplicaFailover.Inc()
				span.Count("failovers", 1)
			}
			counts, err := r.attempt(sc.ctx, ri, q, out)
			if err == nil {
				return counts, nil
			}
			if cerr := ctx.Err(); cerr != nil || r.base.Err() != nil {
				return nil, cmp.Or(cerr, err) // the caller gave up (its error wins), or Close did
			}
			firstErr = cmp.Or(firstErr, err)
		}
		return nil, firstErr
	}

	// The hedged attempts also die when do returns, which reaps the loser.
	cctx, cancel := context.WithCancel(sc.ctx)
	defer cancel()
	order := r.order(nil)
	results := make(chan replicaResult, len(order))
	next := 0
	inflight := 0
	launch := func(hedged bool) {
		ri := order[next]
		next++
		inflight++
		buf := slices.Clone(out) // the attempt's own buffer (nil for DupCounts)
		go func() {
			counts, err := r.attempt(cctx, ri, q, buf)
			results <- replicaResult{counts, err, hedged}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if next < len(order) {
		timer := time.NewTimer(r.opts.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	// hedgeLive tracks an in-flight hedge whose race is still unresolved;
	// every fired hedge is eventually accounted won or lost.
	hedgeLive := false
	var firstErr error
	for {
		select {
		case <-hedgeC:
			// One hedge per call: the classic tail cure is racing the
			// straggler against a single sibling, not a broadcast storm.
			hedgeC = nil
			if next < len(order) {
				hedgeLive = true
				statReplicaHedgeFired.Inc()
				span.Count("hedges_fired", 1)
				launch(true)
			}
		case res := <-results:
			inflight--
			if res.err == nil {
				if hedgeLive {
					if res.hedged {
						statReplicaHedgeWon.Inc()
						span.Count("hedges_won", 1)
					} else {
						statReplicaHedgeLost.Inc()
					}
				}
				copy(out, res.counts)
				return res.counts, nil
			}
			if res.hedged {
				// The hedge attempt itself failed: the race is decided
				// against it no matter what answers later.
				hedgeLive = false
				statReplicaHedgeLost.Inc()
			}
			if err := ctx.Err(); err != nil {
				return nil, err // the caller gave up; its error wins
			}
			if r.base.Err() != nil {
				return nil, res.err // closed mid-call
			}
			if firstErr == nil {
				firstErr = res.err
			}
			if next < len(order) {
				statReplicaFailover.Inc()
				span.Count("failovers", 1)
				launch(false)
			} else if inflight == 0 {
				return nil, firstErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// NPoints returns the number of points the partition holds (identical on
// every replica — they serve the same shard config).
func (r *ReplicatedShard) NPoints() int { return r.npoints }

// PartialCounts answers the capped bulk-count pass from whichever replica
// wins — the call the LStep sweep hammers, and the one hedging exists for.
func (r *ReplicatedShard) PartialCounts(ctx context.Context, epoch Epoch, j int, radius float64, limit int32, out []int32) error {
	_, err := r.do(ctx, bulkCall{epoch: epoch, j: j, r: radius, limit: limit}, out)
	return err
}

// DupCounts answers the duplicate-table pass from whichever replica wins.
func (r *ReplicatedShard) DupCounts(ctx context.Context, epoch Epoch) ([]int32, error) {
	return r.do(ctx, bulkCall{epoch: epoch, dup: true}, nil)
}

// Close tears the partition down: the prober and any in-flight attempts
// are cancelled and waited out, then every dialed replica backend is
// closed. Idempotent; calls after Close fail.
func (r *ReplicatedShard) Close() error {
	var first error
	r.closeOnce.Do(func() {
		r.stop()
		r.proberWG.Wait()
		for _, rep := range r.replicas {
			rep.mu.Lock()
			be := rep.be
			rep.be = nil
			rep.mu.Unlock()
			if be == nil {
				continue
			}
			if err := be.Close(); err != nil && first == nil {
				first = err
			}
		}
	})
	return first
}
