package geometry

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"privcluster/internal/vec"
)

// localReplicaDialers builds R independent LocalShard replicas over one
// shard config — the in-process stand-in for R servers each holding the
// partition's points.
func localReplicaDialers(r int, cfg ShardConfig) []ReplicaDialer {
	out := make([]ReplicaDialer, r)
	for i := range out {
		out[i] = func(context.Context) (ShardBackend, error) {
			return NewLocalShard(cfg)
		}
	}
	return out
}

// replicatedDialer wraps the plain local dialer so every shard partition is
// served by a ReplicatedShard over r LocalShard replicas.
func replicatedDialer(r int, opts ReplicatedShardOptions) ShardDialer {
	return func(ctx context.Context, _ int, cfg ShardConfig) (ShardBackend, error) {
		return NewReplicatedShard(ctx, localReplicaDialers(r, cfg), opts)
	}
}

// flakyShard wraps a ShardBackend and fails every bulk call after the
// shared budget of successful calls is spent — a replica dying mid-sweep.
// Once dead it stays dead (later calls fail too), like a real server.
type flakyShard struct {
	ShardBackend
	budget *atomic.Int32 // successful calls remaining; < 0 once dead
	err    error
}

func (f *flakyShard) gate() error {
	if f.budget.Add(-1) < 0 {
		return f.err
	}
	return nil
}

func (f *flakyShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.ShardBackend.PartialCounts(ctx, epoch, j, r, limit, out)
}

func (f *flakyShard) DupCounts(ctx context.Context, epoch Epoch) ([]int32, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.ShardBackend.DupCounts(ctx, epoch)
}

// TestReplicatedShardEquivalence pins the tentpole at the geometry layer:
// a backend-mode ShardedIndex whose every partition is a ReplicatedShard
// over R local replicas builds the L̂ step function bit-identically to a
// plain CellIndex, at several t, for R ∈ {1, 2, 3} — with hedging off and
// on. The replica set is pure routing; the counts cannot tell.
func TestReplicatedShardEquivalence(t *testing.T) {
	pts := shardTestPoints(t, 11, 600, 2)
	opts := shardTestOptions(2)
	ref := cellIndexOf(t, pts, opts)
	tt := len(pts) / 3
	for _, r := range []int{1, 2, 3} {
		for _, hedge := range []time.Duration{0, time.Nanosecond} {
			tag := fmt.Sprintf("R=%d hedge=%v", r, hedge)
			ropts := ReplicatedShardOptions{HedgeDelay: hedge, ProbeInterval: -1}
			sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
				Shards: 2, Cell: opts,
			}, replicatedDialer(r, ropts))
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			assertSameSteps(t, tag, sh, ref, 2, tt, len(pts))
			if err := sh.Close(); err != nil {
				t.Fatalf("%s: Close: %v", tag, err)
			}
		}
	}
}

// TestReplicatedShardFailover kills the preferred replica mid-LStep-sweep
// (its call budget runs out partway through the ladder) and requires the
// sweep to fail over to the sibling with a bit-identical step function —
// the kill is invisible to the release.
func TestReplicatedShardFailover(t *testing.T) {
	pts := shardTestPoints(t, 13, 500, 2)
	opts := shardTestOptions(2)
	tt := len(pts) / 3
	refStep, err := cellIndexOf(t, pts, opts).BuildLStep(context.Background(), tt)
	if err != nil {
		t.Fatal(err)
	}
	died := errors.New("replica killed mid-sweep")
	for _, failAfter := range []int32{0, 1, 3} {
		var budget atomic.Int32
		budget.Store(failAfter)
		dial := func(_ context.Context, _ int, cfg ShardConfig) (ShardBackend, error) {
			primary := func(context.Context) (ShardBackend, error) {
				ls, err := NewLocalShard(cfg)
				if err != nil {
					return nil, err
				}
				return &flakyShard{ShardBackend: ls, budget: &budget, err: died}, nil
			}
			backup := func(context.Context) (ShardBackend, error) {
				return NewLocalShard(cfg)
			}
			return NewReplicatedShard(context.Background(),
				[]ReplicaDialer{primary, backup}, ReplicatedShardOptions{ProbeInterval: -1})
		}
		sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
			Shards: 2, Cell: opts,
		}, dial)
		if err != nil {
			t.Fatalf("failAfter=%d: build: %v", failAfter, err)
		}
		step, err := sh.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatalf("failAfter=%d: BuildLStep through failover: %v", failAfter, err)
		}
		assertSameStep(t, fmt.Sprintf("failAfter=%d", failAfter), step, refStep)
		if err := sh.Close(); err != nil {
			t.Fatalf("failAfter=%d: Close: %v", failAfter, err)
		}
	}
}

// TestReplicatedShardAllDead: when every replica is dead, the first real
// error surfaces promptly — at build time when no replica dials, at query
// time when they all die mid-use.
func TestReplicatedShardAllDead(t *testing.T) {
	pts := shardTestPoints(t, 17, 80, 2)
	opts := shardTestOptions(2)
	dialErr := errors.New("connection refused")

	// No replica dials: the build must fail with that error.
	dead := func(context.Context) (ShardBackend, error) { return nil, dialErr }
	if _, err := NewReplicatedShard(context.Background(),
		[]ReplicaDialer{dead, dead, dead}, ReplicatedShardOptions{}); !errors.Is(err, dialErr) {
		t.Fatalf("all-dead dial: err = %v, want %v", err, dialErr)
	}
	if _, err := NewReplicatedShard(context.Background(), nil, ReplicatedShardOptions{}); err == nil {
		t.Fatal("empty replica set accepted")
	}

	// All replicas die mid-use: exactly the first failure's error, after
	// every replica was tried.
	died := errors.New("replica exploded")
	var budget atomic.Int32 // 0: every call fails
	cfgd := shardConfigFor(t, pts, opts)
	dials := make([]ReplicaDialer, 3)
	var dialed atomic.Int32
	for i := range dials {
		dials[i] = func(context.Context) (ShardBackend, error) {
			dialed.Add(1)
			ls, err := NewLocalShard(cfgd)
			if err != nil {
				return nil, err
			}
			return &flakyShard{ShardBackend: ls, budget: &budget, err: died}, nil
		}
	}
	rs, err := NewReplicatedShard(context.Background(), dials, ReplicatedShardOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); !errors.Is(err, died) {
		t.Fatalf("all replicas dead: err = %v, want %v", err, died)
	}
	if got := dialed.Load(); got != 3 {
		t.Fatalf("dialed %d replicas before giving up, want 3", got)
	}
}

// shardConfigFor builds the single-shard, ladder-pinned config holding all
// points, exactly as NewShardedIndexBackends would hand it to a dialer.
func shardConfigFor(t *testing.T, pts []vec.Vector, opts CellIndexOptions) ShardConfig {
	t.Helper()
	var cfg ShardConfig
	sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
		Shards: 1, Cell: opts,
	}, func(_ context.Context, _ int, c ShardConfig) (ShardBackend, error) {
		cfg = c
		return NewLocalShard(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	return cfg
}

// TestReplicatedShardHedge: with a hedge delay of one nanosecond and a
// primary that answers slowly, the hedge fires on (almost) every call and
// the sibling's answer wins — and whichever answer wins, it is returned
// exactly once, never summed with the loser's (the counts would double).
func TestReplicatedShardHedge(t *testing.T) {
	pts := shardTestPoints(t, 19, 300, 2)
	opts := shardTestOptions(2)
	cfg := shardConfigFor(t, pts, opts)

	ref, err := NewLocalShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partials(context.Background(), ref, EpochFrozen, 1, 0.05, 50, len(pts))
	if err != nil {
		t.Fatal(err)
	}

	var hedged atomic.Int32
	slow := func(context.Context) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &slowShard{ShardBackend: ls, delay: 2 * time.Millisecond}, nil
	}
	fast := func(context.Context) (ShardBackend, error) {
		hedged.Add(1)
		return NewLocalShard(cfg)
	}
	rs, err := NewReplicatedShard(context.Background(), []ReplicaDialer{slow, fast},
		ReplicatedShardOptions{HedgeDelay: time.Nanosecond, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for q := 0; q < 20; q++ {
		got, err := partials(context.Background(), rs, EpochFrozen, 1, 0.05, 50, len(pts))
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d counts, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: count[%d] = %d, want %d (hedge double-counted or diverged)", q, i, got[i], want[i])
			}
		}
	}
	if hedged.Load() == 0 {
		t.Fatal("hedge replica was never dialed despite a 1ns hedge delay")
	}
}

// slowShard delays every bulk answer (still honoring cancellation) so a
// hedge always has time to fire and race it.
type slowShard struct {
	ShardBackend
	delay time.Duration
}

func (s *slowShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	select {
	case <-time.After(s.delay):
	case <-ctxOrBackground(ctx).Done():
		return ctx.Err()
	}
	return s.ShardBackend.PartialCounts(ctx, epoch, j, r, limit, out)
}

// TestReplicatedShardProbeRecovery: a replica that failed (and was marked
// down) is re-probed in the background and rejoins the preference order, so
// later calls route to it again rather than treating it as a last resort
// forever.
func TestReplicatedShardProbeRecovery(t *testing.T) {
	pts := shardTestPoints(t, 23, 120, 2)
	opts := shardTestOptions(2)
	cfg := shardConfigFor(t, pts, opts)

	var budget atomic.Int32
	budget.Store(1) // primary answers once, then dies
	died := errors.New("primary down")
	primary := func(context.Context) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &flakyShard{ShardBackend: ls, budget: &budget, err: died}, nil
	}
	backup := func(context.Context) (ShardBackend, error) { return NewLocalShard(cfg) }

	var probed atomic.Int32
	rs, err := NewReplicatedShard(context.Background(), []ReplicaDialer{primary, backup},
		ReplicatedShardOptions{
			ProbeInterval: time.Millisecond,
			Probe: func(_ context.Context, replica int) error {
				probed.Add(1)
				if replica == 0 {
					budget.Store(1 << 30) // the replica has come back
				}
				return nil
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// First call: primary's budget runs out → failover to backup, primary
	// marked down.
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); err != nil {
		t.Fatal(err)
	}
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); err != nil {
		t.Fatal(err)
	}
	// The down mark itself is transient — the 1ms prober may clear it
	// before this goroutine looks — so assert the recovery: the prober ran
	// against the primary and the mark is (eventually) gone.
	deadline := time.Now().Add(5 * time.Second)
	for probed.Load() == 0 || rs.replicas[0].down.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("primary still down after %d probes", probed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// The recovered primary serves again (its budget was restored).
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); err != nil {
		t.Fatal(err)
	}
}

// TestReplicatedShardPreCancelled: a context cancelled before the call must
// return immediately without touching any replica.
func TestReplicatedShardPreCancelled(t *testing.T) {
	pts := shardTestPoints(t, 29, 80, 2)
	cfg := shardConfigFor(t, pts, shardTestOptions(2))
	var calls atomic.Int32
	dial := func(context.Context) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &countingShard{ShardBackend: ls, calls: &calls}, nil
	}
	rs, err := NewReplicatedShard(context.Background(), []ReplicaDialer{dial, dial},
		ReplicatedShardOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := partials(ctx, rs, EpochFrozen, 0, 0.05, 10, len(pts)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("pre-cancelled call reached a replica %d times", got)
	}
}

type countingShard struct {
	ShardBackend
	calls *atomic.Int32
}

func (c *countingShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	c.calls.Add(1)
	return c.ShardBackend.PartialCounts(ctx, epoch, j, r, limit, out)
}

// TestReplicatedShardClose: Close is idempotent, closes every dialed
// replica backend, stops the prober, and fails later calls.
func TestReplicatedShardClose(t *testing.T) {
	pts := shardTestPoints(t, 31, 80, 2)
	cfg := shardConfigFor(t, pts, shardTestOptions(2))
	closed := 0
	dial := func(context.Context) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &closeCounter{ShardBackend: ls, closed: &closed}, nil
	}
	rs, err := NewReplicatedShard(context.Background(), []ReplicaDialer{dial, dial},
		ReplicatedShardOptions{ProbeInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Force the second replica to dial too (failover path), so Close has
	// two backends to release.
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); err != nil {
		t.Fatal(err)
	}
	rs.replicas[1].down.Store(false)
	if err := rs.dialProbe(context.Background(), rs.replicas[1]); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if closed != 2 {
		t.Fatalf("Close released %d backends, want 2", closed)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := partials(context.Background(), rs, EpochFrozen, 0, 0.05, 10, len(pts)); err == nil {
		t.Fatal("call after Close succeeded")
	}
}

// blockingShard answers its first call, then blocks every later one until
// the call's context is done, announcing each blocked call on entered.
type blockingShard struct {
	ShardBackend
	calls   atomic.Int32
	entered chan<- struct{}
}

func (b *blockingShard) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	if b.calls.Add(1) == 1 {
		return b.ShardBackend.PartialCounts(ctx, epoch, j, r, limit, out)
	}
	b.entered <- struct{}{}
	<-ctx.Done()
	return ctx.Err()
}

// TestReplicatedShardCloseAbortsInFlight: unhedged calls blocked in a
// backend that waits on its context fail promptly when Close runs — a call
// under a caller context an earlier call already used (the cached scope)
// and a concurrent call under another context (a scope of its own) alike —
// and Close returns.
func TestReplicatedShardCloseAbortsInFlight(t *testing.T) {
	pts := shardTestPoints(t, 41, 80, 2)
	cfg := shardConfigFor(t, pts, shardTestOptions(2))
	entered := make(chan struct{}, 2)
	dial := func(context.Context) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &blockingShard{ShardBackend: ls, entered: entered}, nil
	}
	rs, err := NewReplicatedShard(context.Background(), []ReplicaDialer{dial, dial}, ReplicatedShardOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	out := make([]int32, len(pts))
	if err := rs.PartialCounts(ctxA, EpochFrozen, 0, 0.05, 10, out); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, ctx := range []context.Context{ctxA, ctxB} {
		go func() {
			errs <- rs.PartialCounts(ctx, EpochFrozen, 0, 0.05, 10, make([]int32, len(pts)))
		}()
	}
	<-entered // one call is blocked in the backend, the other waits its turn
	closed := make(chan error, 1)
	go func() { closed <- rs.Close() }()
	for range 2 {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call blocked across Close succeeded")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not abort an in-flight call")
		}
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
}

// loserShard is a hedge loser that keeps writing after the race is
// decided: it scribbles into its buffer until its call is cancelled (do
// returning with the sibling's answer) and for a while after, then fails.
type loserShard struct {
	ShardBackend
	done chan<- struct{}
}

func (l *loserShard) PartialCounts(ctx context.Context, _ Epoch, _ int, _ float64, _ int32, out []int32) error {
	defer func() { l.done <- struct{}{} }()
	scribble := func() {
		for i := range out {
			out[i] = -1
		}
	}
	for ctx.Err() == nil {
		scribble()
	}
	for end := time.Now().Add(5 * time.Millisecond); time.Now().Before(end); {
		scribble()
	}
	return ctx.Err()
}

// TestReplicatedShardHedgeLoserOwnBuffer: on a hedged R = 2 partition the
// primary loses every race and is still writing into its buffer when the
// hedge's answer returns. The caller's buffer must hold the winner's
// counts, both when the call returns and after the loser has finished —
// a loser writing into it is a data race the race detector reports, and
// leaves garbage behind.
func TestReplicatedShardHedgeLoserOwnBuffer(t *testing.T) {
	ctx := context.Background()
	pts := shardTestPoints(t, 37, 300, 2)
	cfg := shardConfigFor(t, pts, shardTestOptions(2))
	ref, err := NewLocalShard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partials(ctx, ref, EpochFrozen, 1, 0.05, 50, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{}, 1)
	loser := func(context.Context) (ShardBackend, error) {
		return &loserShard{ShardBackend: ref, done: done}, nil
	}
	winner := func(context.Context) (ShardBackend, error) { return NewLocalShard(cfg) }
	rs, err := NewReplicatedShard(ctx, []ReplicaDialer{loser, winner},
		ReplicatedShardOptions{HedgeDelay: time.Nanosecond, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	out := make([]int32, len(pts))
	for q := 0; q < 5; q++ {
		if err := rs.PartialCounts(ctx, EpochFrozen, 1, 0.05, 50, out); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if !slices.Equal(out, want) {
			t.Fatalf("query %d: counts diverge from the winner's while the loser writes", q)
		}
		<-done
		if !slices.Equal(out, want) {
			t.Fatalf("query %d: the hedge loser wrote into the caller's buffer", q)
		}
	}
}
