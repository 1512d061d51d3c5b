package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// startReplicaServers brings up count servers on one loopback net and
// returns their addresses, the servers (so tests can kill them), and the
// raw dial func.
func startReplicaServers(t *testing.T, count int) ([]string, []*Server, DialFunc) {
	t.Helper()
	ln := NewLoopbackNet()
	addrs := make([]string, count)
	servers := make([]*Server, count)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("replica-%d", i)
		l, err := ln.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewServer(ServerOptions{})
		go servers[i].Serve(l)
		srv := servers[i]
		t.Cleanup(func() { srv.Close() })
	}
	return addrs, servers, ln.Dial
}

// replicatedIndex builds a backend-mode ShardedIndex over the placement
// through the real wire protocol.
func replicatedIndex(t *testing.T, pts []vec.Vector, parts [][]string, ropts ReplicaOptions) *geometry.ShardedIndex {
	t.Helper()
	d := pts[0].Dim()
	ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts), geometry.ShardedIndexOptions{
		Shards: len(parts), Cell: testCellOptions(d),
	}, ReplicatedShardDialer(parts, ropts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// partition slices addrs into p partitions of r replicas each.
func partition(addrs []string, p, r int) [][]string {
	parts := make([][]string, p)
	for i := range parts {
		parts[i] = addrs[i*r : (i+1)*r]
	}
	return parts
}

// TestReplicatedDialerEquivalence is the transport-layer tentpole pin: a
// ShardedIndex over the replicated dialer — R replicas per partition, with
// and without hedging — builds the L̂ step function bit-identically to a
// local CellIndex, at several t. Which replica serves a call is invisible
// to releases.
func TestReplicatedDialerEquivalence(t *testing.T) {
	pts := testPoints(t, 41, 500, 2)
	ref := cellIndexOf(t, pts, testCellOptions(2))
	tt := len(pts) / 3
	const nparts = 2
	for _, r := range []int{1, 2, 3} {
		for _, hedge := range []time.Duration{0, time.Nanosecond} {
			addrs, _, dial := startReplicaServers(t, nparts*r)
			ix := replicatedIndex(t, pts, partition(addrs, nparts, r), ReplicaOptions{
				Options:    Options{Dial: dial},
				HedgeDelay: hedge,
				// No prober: nothing goes down in this test, and CI runs
				// enough cases that idle tickers would just add noise.
				ProbeInterval: -1,
			})
			assertSameSteps(t, fmt.Sprintf("R=%d hedge=%v", r, hedge), ix, ref, 2, tt, len(pts))
		}
	}
}

// chokeConn passes bytes through until the shared read budget runs dry,
// then kills the connection — a server death from the client's viewpoint.
type chokeConn struct {
	net.Conn
	budget *atomic.Int64
	dead   *atomic.Bool
}

func (c *chokeConn) Read(p []byte) (int, error) {
	if c.dead.Load() {
		c.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	n, err := c.Conn.Read(p)
	if c.budget.Add(-int64(n)) < 0 {
		c.dead.Store(true)
		c.Conn.Close()
		if err == nil {
			err = io.ErrClosedPipe
		}
	}
	return n, err
}

// TestReplicatedKillMidSweep kills one replica partway through the
// LStep sweep — its connection dies after a byte budget and later dials to
// it are refused, so the client's own transport retry cannot resurrect it
// — and requires the sweep to fail over to the sibling replica with a
// bit-identical step function. Run under -race in CI; t.Cleanup closes the
// index, so leaked replica goroutines would trip the detector or hang
// shutdown.
func TestReplicatedKillMidSweep(t *testing.T) {
	pts := testPoints(t, 43, 500, 2)
	tt := len(pts) / 3
	refStep, err := cellIndexOf(t, pts, testCellOptions(2)).BuildLStep(context.Background(), tt)
	if err != nil {
		t.Fatal(err)
	}
	// Budgets chosen to kill the victim at different stages: during its
	// very first handshake (the build must then come up on the sibling),
	// right after the build's DupCounts pass, and partway into the sweep's
	// PartialCounts responses (each carries 4·n ≈ 2000 payload bytes).
	for _, budget := range []int64{10, 3000, 9000} {
		addrs, _, dial := startReplicaServers(t, 4)
		victim := addrs[0] // primary replica of partition 0
		var remaining atomic.Int64
		remaining.Store(budget)
		var dead atomic.Bool
		killingDial := func(ctx context.Context, addr string) (net.Conn, error) {
			if addr != victim {
				return dial(ctx, addr)
			}
			if dead.Load() {
				return nil, fmt.Errorf("connect %s: connection refused", addr)
			}
			c, err := dial(ctx, addr)
			if err != nil {
				return nil, err
			}
			return &chokeConn{Conn: c, budget: &remaining, dead: &dead}, nil
		}
		ix := replicatedIndex(t, pts, partition(addrs, 2, 2), ReplicaOptions{
			Options:       Options{Dial: killingDial},
			ProbeInterval: -1,
		})
		step, err := ix.BuildLStep(context.Background(), tt)
		if err != nil {
			t.Fatalf("budget=%d: BuildLStep through replica death: %v", budget, err)
		}
		assertStepEqual(t, fmt.Sprintf("budget=%d", budget), step, refStep)
		if !dead.Load() {
			t.Fatalf("budget=%d: victim outlived the sweep — the kill never happened", budget)
		}
	}
}

// TestReplicatedAllReplicasDead: when every replica of a partition has
// died, a query surfaces one typed *transport.Error promptly instead of
// hanging or minting partial sums.
func TestReplicatedAllReplicasDead(t *testing.T) {
	pts := testPoints(t, 47, 300, 2)
	addrs, servers, dial := startReplicaServers(t, 2)
	ix := replicatedIndex(t, pts, [][]string{addrs}, ReplicaOptions{
		Options:       Options{Dial: dial},
		ProbeInterval: -1,
	})
	// Warm query while both replicas live.
	if _, err := ix.BuildLStep(context.Background(), len(pts)/3); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Close()
	}
	start := time.Now()
	_, err := ix.BuildLStep(context.Background(), len(pts)/3)
	if err == nil {
		t.Fatal("BuildLStep succeeded with every replica dead")
	}
	var te *Error
	if !errors.As(err, &te) {
		t.Fatalf("all-dead error is %T (%v), want *transport.Error", err, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("all-dead error took %v to surface", elapsed)
	}
}

// TestReplicatedDialerSingleReplica: a one-replica partition is served by
// a plain RemoteShard — no wrapper, no prober — dialed exactly as DialShard
// resolves the options (including the client's own transparent reconnect
// and a negative Retries meaning none).
func TestReplicatedDialerSingleReplica(t *testing.T) {
	pts := testPoints(t, 53, 200, 2)
	addrs, _, dial := startReplicaServers(t, 2)
	d := pts[0].Dim()
	cellOpts := testCellOptions(d)
	dialer := ReplicatedShardDialer(partition(addrs, 2, 1), ReplicaOptions{Options: Options{Dial: dial, Retries: -1}})
	var got geometry.ShardBackend
	ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts), geometry.ShardedIndexOptions{
		Shards: 2, Cell: cellOpts,
	}, func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
		be, err := dialer(ctx, shard, cfg)
		if shard == 0 && err == nil {
			got = be
		}
		return be, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	rs, ok := got.(*RemoteShard)
	if !ok {
		t.Fatalf("single-replica partition served by %T, want *RemoteShard", got)
	}
	if rs.opts.Retries != 0 {
		t.Errorf("Retries -1 dialed with %d retries, want 0 (a plain DialShard's resolution)", rs.opts.Retries)
	}

	// An empty replica set is refused with a typed dial error.
	_, err = ReplicatedShardDialer([][]string{{}}, ReplicaOptions{Options: Options{Dial: dial}})(
		context.Background(), 0, geometry.ShardConfig{})
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindDial {
		t.Fatalf("empty replica set: err = %v, want *Error{Kind: KindDial}", err)
	}
}
