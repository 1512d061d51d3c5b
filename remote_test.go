package privcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privcluster/internal/transport"
)

// startLoopbackServers brings up `count` shard servers on an in-process
// loopback net and returns their addresses plus the DatasetOptions fields
// that route queries through them.
func startLoopbackServers(t *testing.T, count int) ([]string, *transport.LoopbackNet) {
	t.Helper()
	ln := transport.NewLoopbackNet()
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard-%d", i)
		l, err := ln.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(transport.ServerOptions{})
		go srv.Serve(l)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return addrs, ln
}

// TestRemoteReleaseEquivalence pins the transport tentpole at the public
// API: with S ∈ {2, 4} shards served over the loopback wire protocol,
// seeded releases from Dataset.FindCluster and Dataset.FindClusters are
// bit-identical to the local handle's one in-process index — the DP
// mechanisms consume identical counts and draw identical noise, so the
// privacy analysis is untouched by where the shards run.
func TestRemoteReleaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02) // > ExactIndexMaxN: scalable backend
	ctx := context.Background()
	q := QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 9}
	qk := QueryOptions{Epsilon: 6, Delta: 3e-5, Seed: 4}

	release := func(o DatasetOptions) (Cluster, []Cluster) {
		t.Helper()
		ds, err := Open(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		c, err := ds.FindCluster(ctx, 3000, q)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := ds.FindClusters(ctx, 2, 2500, qk)
		if err != nil {
			t.Fatal(err)
		}
		return c, cs
	}

	ref, refK := release(DatasetOptions{})
	for _, s := range []int{2, 4} {
		addrs, ln := startLoopbackServers(t, s)
		got, gotK := release(DatasetOptions{Placement: placementOf(addrs, s, 1, ln.Dial)})
		if got.Radius != ref.Radius || got.RawRadius != ref.RawRadius ||
			got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
			t.Errorf("S=%d remote FindCluster differs from local: %+v vs %+v", s, got, ref)
		}
		if len(gotK) != len(refK) {
			t.Fatalf("S=%d remote FindClusters: %d vs %d clusters", s, len(gotK), len(refK))
		}
		for i := range refK {
			if gotK[i].Radius != refK[i].Radius || gotK[i].Center[0] != refK[i].Center[0] {
				t.Errorf("S=%d remote cluster %d differs: %+v vs %+v", s, i, gotK[i], refK[i])
			}
		}
	}
}

// TestRemoteDatasetClose: Close releases the remote connections and the
// handle reports no error; a handle over dead servers surfaces a typed
// transport error from its first query instead of hanging.
func TestRemoteDatasetClose(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02)
	addrs, ln := startLoopbackServers(t, 2)
	ds, err := Open(pts, DatasetOptions{Placement: placementOf(addrs, 2, 1, ln.Dial)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.FindCluster(context.Background(), 3000, QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Dead servers: the first query fails with a transport error.
	deadNet := transport.NewLoopbackNet()
	ds2, err := Open(pts, DatasetOptions{Placement: placementOf([]string{"gone"}, 1, 1, deadNet.Dial)})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	_, err = ds2.FindCluster(context.Background(), 3000, QueryOptions{Epsilon: 2, Delta: 1e-5})
	var te *transport.Error
	if !errors.As(err, &te) {
		t.Fatalf("query against dead servers: err = %v, want *transport.Error", err)
	}
}

// countedConn reports its first Close to the shared open-connection count.
type countedConn struct {
	net.Conn
	once sync.Once
	open *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// TestPlacementGOMAXPROCSDrift: a Placement handle builds its index once,
// so queries under changing GOMAXPROCS values neither rebuild it nor
// re-dial the shard servers, and Close leaves no connection open.
func TestPlacementGOMAXPROCSDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02)
	addrs, ln := startLoopbackServers(t, 2)
	var dials, open atomic.Int64
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := ln.Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		open.Add(1)
		return &countedConn{Conn: c, open: &open}, nil
	}
	ds, err := Open(pts, DatasetOptions{Placement: placementOf(addrs, 2, 1, dial)})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 5, 6} {
		runtime.GOMAXPROCS(procs)
		if _, err := ds.FindCluster(context.Background(), 3000, QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 1}); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
	if b := ds.builds.Load(); b != 1 {
		t.Errorf("%d index builds across GOMAXPROCS changes, want 1", b)
	}
	if d := dials.Load(); d != 2 {
		t.Errorf("%d shard connections dialed, want 2 (one per partition)", d)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if o := open.Load(); o != 0 {
		t.Errorf("%d shard connections still open after Close", o)
	}

	// A query that passed checkOpen before Close must not build (and dial)
	// the index afterwards.
	unbuilt, err := Open(pts, DatasetOptions{Placement: placementOf(addrs, 2, 1, dial)})
	if err != nil {
		t.Fatal(err)
	}
	if err := unbuilt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := unbuilt.index(); !errors.Is(err, ErrClosed) {
		t.Errorf("index() after Close: %v, want ErrClosed", err)
	}
	if d := dials.Load(); d != 2 {
		t.Errorf("%d shard connections dialed after Close, want still 2", d)
	}
}

// TestPlacementDialTimeout: Placement.DialTimeout bounds the handshake on
// both handle kinds. The shard server accepts connections but never
// answers, so only the timeout can end the dial — the immutable handle's
// first query and the mutable handle's Open (which dials its epoch
// sessions eagerly) must fail well before the 10s default.
func TestPlacementDialTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	ln := transport.NewLoopbackNet()
	l, err := ln.Listen("hung")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var held []net.Conn
		for {
			c, err := l.Accept()
			if err != nil {
				for _, c := range held {
					c.Close()
				}
				return
			}
			held = append(held, c)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	place := func() *Placement {
		p := placementOf([]string{"hung"}, 1, 1, ln.Dial)
		p.DialTimeout = 200 * time.Millisecond
		return p
	}
	const limit = 2 * time.Second

	start := time.Now()
	ds, err := Open(pts, DatasetOptions{GridSize: 1024, Placement: place()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	_, err = ds.FindCluster(context.Background(), 400, QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 1})
	var te *transport.Error
	if !errors.As(err, &te) {
		t.Fatalf("immutable query against a hung shard server: err = %v, want *transport.Error", err)
	}
	if el := time.Since(start); el > limit {
		t.Errorf("immutable handle gave up after %v, want < %v", el, limit)
	}

	start = time.Now()
	mut, err := Open(pts, DatasetOptions{GridSize: 1024, Placement: place(), Mutable: true})
	if err == nil {
		mut.Close()
	}
	if !errors.As(err, &te) {
		t.Fatalf("mutable Open against a hung shard server: err = %v, want *transport.Error", err)
	}
	if el := time.Since(start); el > limit {
		t.Errorf("mutable Open gave up after %v, want < %v", el, limit)
	}
}
