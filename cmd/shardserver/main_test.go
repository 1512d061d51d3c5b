package main

import (
	"bytes"
	"context"
	"math/rand"
	"regexp"
	"sync"
	"testing"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/transport"
	"privcluster/internal/vec"
)

// syncBuffer is a concurrency-safe output sink for the daemon under test.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon body on a free port and returns its address
// and a cancel that triggers (and waits for) graceful shutdown.
func startDaemon(t *testing.T, args ...string) (addr string, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v\n%s", err, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Errorf("daemon did not shut down\n%s", out.String())
		}
	}
}

func testConfig(t *testing.T, n int) geometry.ShardConfig {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	grid, err := geometry.NewGrid(1<<12, 2)
	if err != nil {
		t.Fatal(err)
	}
	prepared := vec.NewFrame(n, 2)
	for i := 0; i < n; i++ {
		u := prepared.Row(i)
		u[0], u[1] = rng.Float64(), rng.Float64()
		grid.QuantizeInto(u, u)
	}
	members := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 {
		members = append(members, int32(i))
	}
	return geometry.ShardConfig{
		Points: prepared,
		Owned:  members,
		Cell:   geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()},
	}
}

// TestDaemonServesAndShutsDown: the daemon comes up on :0, serves a real
// TCP shard session end to end, and exits cleanly on context cancel (the
// SIGINT/SIGTERM path).
func TestDaemonServesAndShutsDown(t *testing.T) {
	addr, shutdown := startDaemon(t)
	cfg := testConfig(t, 200)
	rs, err := transport.DialShard(context.Background(), addr, cfg, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := rs.DupCounts(context.Background(), geometry.EpochFrozen)
	if err != nil {
		t.Fatal(err)
	}
	if len(dup) != len(cfg.Owned) {
		t.Fatalf("dup table has %d slots, want one per owned row (%d)", len(dup), len(cfg.Owned))
	}
	// The client rejects a response of any other slot count than the
	// buffer's: one per owned row.
	counts := make([]int32, len(cfg.Owned))
	if err := rs.PartialCounts(context.Background(), geometry.EpochFrozen, 0, cfg.Cell.MinRadius, 10, counts); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	shutdown()
	if _, err := transport.DialShard(context.Background(), addr, cfg, transport.Options{
		Retries: -1, DialTimeout: time.Second,
	}); err == nil {
		t.Error("dial succeeded after daemon shutdown")
	}
}
