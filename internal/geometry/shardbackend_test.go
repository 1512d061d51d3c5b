package geometry

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// localDialer is the in-process ShardDialer: the generic backend scatter
// path with zero transport, so its equivalence failures can only come from
// the decomposition itself.
func localDialer(_ context.Context, _ int, cfg ShardConfig) (ShardBackend, error) {
	return NewLocalShard(cfg)
}

// TestShardedIndexBackendsMatchesCellIndex pins the transport tentpole at
// the geometry layer: a backend-mode ShardedIndex (shards reached only
// through the ShardBackend interface, global duplicate table and bulk
// counts scattered from the backends' owned-row answers) answers every
// slot with the CellIndex count of its row and builds the L̂ step function
// bit-identically to a CellIndex over the same points. With this in place, a remote transport
// only has to move the ShardBackend calls faithfully to inherit the whole
// equivalence contract.
func TestShardedIndexBackendsMatchesCellIndex(t *testing.T) {
	for _, d := range []int{1, 2, 3} {
		pts := shardTestPoints(t, int64(d), 700, d)
		opts := shardTestOptions(d)
		ref := cellIndexOf(t, pts, opts)
		tt := len(pts) / 3
		for _, s := range []int{1, 2, 4} {
			tag := fmt.Sprintf("d=%d s=%d", d, s)
			sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
				Shards: s, Cell: opts,
			}, localDialer)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if len(sh.backends) != s {
				t.Fatalf("%s: built %d backends", tag, len(sh.backends))
			}
			if sh.lad != ref.lad {
				t.Fatalf("%s: ladder diverged: %+v vs %+v", tag, sh.lad, ref.lad)
			}
			if sh.N() != ref.N() {
				t.Fatalf("%s: N = %d, want %d", tag, sh.N(), ref.N())
			}
			for i := range pts {
				if sh.dupCount[i] != ref.dupCount[i] {
					t.Fatalf("%s: dupCount[%d] = %d, want %d", tag, i, sh.dupCount[i], ref.dupCount[i])
				}
			}
			// Each slot is the in-process count of the row it is scattered to.
			for _, j := range []int{0, ref.lad.top / 2, ref.lad.top} {
				want := freshCounts(t, ref, j, int32(tt))
				for si, be := range sh.backends {
					got, err := partials(context.Background(), be, EpochFrozen, j, ref.lad.radius(j), int32(tt), len(sh.owned[si]))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					for k, g := range sh.owned[si] {
						if got[k] != want[g] {
							t.Fatalf("%s: shard %d level %d: slot %d (row %d) = %d, want %d", tag, si, j, k, g, got[k], want[g])
						}
					}
				}
			}
			assertSameSteps(t, tag, sh, ref, 1, 2, tt, len(pts))
			if err := sh.Close(); err != nil {
				t.Fatalf("%s: Close: %v", tag, err)
			}
		}
	}
}

// failingBackend wraps a LocalShard and fails PartialCounts after a set
// number of calls — the minimal stand-in for a shard server dying mid-use.
type failingBackend struct {
	*LocalShard
	calls, failAfter int
	err              error
}

func (f *failingBackend) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	f.calls++
	if f.calls > f.failAfter {
		return f.err
	}
	return f.LocalShard.PartialCounts(ctx, epoch, j, r, limit, out)
}

// TestShardedIndexBackendFailure: a backend failing mid-LStep-sweep must
// surface its error from BuildLStep — never a hang, never a partial sum —
// and every later sweep must fail the same way rather than return counts.
func TestShardedIndexBackendFailure(t *testing.T) {
	pts := shardTestPoints(t, 3, 400, 2)
	opts := shardTestOptions(2)
	wantErr := errors.New("shard 1 went away")
	var fb *failingBackend
	sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
		Shards: 2, Cell: opts,
	}, func(ctx context.Context, shard int, cfg ShardConfig) (ShardBackend, error) {
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		if shard == 1 {
			fb = &failingBackend{LocalShard: ls, failAfter: 2, err: wantErr}
			return fb, nil
		}
		return ls, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	_, err = sh.BuildLStep(context.Background(), len(pts)/3)
	if !errors.Is(err, wantErr) {
		t.Fatalf("BuildLStep after backend death: err = %v, want %v", err, wantErr)
	}
	if ls, err := sh.BuildLStep(context.Background(), len(pts)/3); !errors.Is(err, wantErr) || ls != nil {
		t.Errorf("second sweep after backend death = (%v, %v), want (nil, %v)", ls, err, wantErr)
	}
}

// TestShardedIndexBackendsCancellation: cancelling the caller's context
// mid-sweep aborts the fan-out promptly with the context error and drains
// every worker (the test is run under -race in CI, so a leaked writer
// would also trip the detector).
func TestShardedIndexBackendsCancellation(t *testing.T) {
	pts := shardTestPoints(t, 5, 2000, 2)
	opts := shardTestOptions(2)
	sh, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
		Shards: 4, Cell: opts,
	}, localDialer)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Pre-cancelled: fails before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.BuildLStep(ctx, len(pts)/3); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildLStep: err = %v, want context.Canceled", err)
	}

	// Mid-flight: cancel from a backend hook once the sweep is underway.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	hooked := make([]ShardBackend, len(sh.backends))
	for i, be := range sh.backends {
		hooked[i] = &cancelOnCall{ShardBackend: be, n: &calls, after: 3, cancel: cancel}
	}
	orig := sh.backends
	sh.backends = hooked
	_, err = sh.BuildLStep(ctx, len(pts)/3)
	sh.backends = orig
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v, want context.Canceled", err)
	}
}

// cancelOnCall triggers cancel once the shared call counter reaches
// `after` (atomic: calls within one sweep level run concurrently across
// backends).
type cancelOnCall struct {
	ShardBackend
	n      *atomic.Int32
	after  int32
	cancel context.CancelFunc
}

func (c *cancelOnCall) PartialCounts(ctx context.Context, epoch Epoch, j int, r float64, limit int32, out []int32) error {
	if c.n.Add(1) >= c.after {
		c.cancel()
	}
	return c.ShardBackend.PartialCounts(ctx, epoch, j, r, limit, out)
}

// TestLocalShardConfigValidation covers the malformed-config rejections a
// remote handshake relies on.
func TestLocalShardConfigValidation(t *testing.T) {
	pts := shardTestPoints(t, 7, 50, 2)
	opts := shardTestOptions(2)
	cases := []struct {
		name string
		cfg  ShardConfig
	}{
		{"no points", ShardConfig{Owned: []int32{0}, Cell: opts}},
		{"no members", ShardConfig{Points: frameOf(t, pts), Cell: opts}},
		{"member out of range", ShardConfig{Points: frameOf(t, pts), Owned: []int32{int32(len(pts))}, Cell: opts}},
		{"negative member", ShardConfig{Points: frameOf(t, pts), Owned: []int32{-1}, Cell: opts}},
		// A ragged "mixed dims" config is no longer representable: the frame
		// type guarantees uniform dimension by construction.
	}
	for _, tc := range cases {
		if _, err := NewLocalShard(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestShardedIndexBackendsDialFailure: a dial error aborts the build and
// closes the backends that did come up.
func TestShardedIndexBackendsDialFailure(t *testing.T) {
	pts := shardTestPoints(t, 9, 100, 2)
	opts := shardTestOptions(2)
	closed := 0
	_, err := NewShardedIndexBackends(context.Background(), frameOf(t, pts), ShardedIndexOptions{
		Shards: 3, Cell: opts,
	}, func(ctx context.Context, shard int, cfg ShardConfig) (ShardBackend, error) {
		if shard == 1 {
			return nil, fmt.Errorf("no route to shard %d", shard)
		}
		ls, err := NewLocalShard(cfg)
		if err != nil {
			return nil, err
		}
		return &closeCounter{ShardBackend: ls, closed: &closed}, nil
	})
	if err == nil {
		t.Fatal("dial failure not surfaced")
	}
	if closed != 2 {
		t.Errorf("closed %d backends, want 2", closed)
	}
}

type closeCounter struct {
	ShardBackend
	closed *int
}

func (c *closeCounter) Close() error {
	*c.closed++
	return c.ShardBackend.Close()
}
