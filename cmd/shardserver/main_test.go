package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/transport"
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
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = []float64{rng.Float64(), rng.Float64()}
	}
	prepared, err := prepare(raw, 1<<12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 {
		members = append(members, int32(i))
	}
	return geometry.ShardConfig{
		Points:  prepared,
		Members: members,
		Cell:    geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()},
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
	if len(dup) != cfg.Points.N() {
		t.Fatalf("dup table has %d slots, want %d", len(dup), cfg.Points.N())
	}
	counts, err := rs.PartialCounts(context.Background(), geometry.EpochFrozen, 0, cfg.Cell.MinRadius, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != cfg.Points.N() {
		t.Fatalf("partials have %d slots, want %d", len(counts), cfg.Points.N())
	}
	rs.Close()
	shutdown()
	if _, err := transport.DialShard(context.Background(), addr, cfg, transport.Options{
		Retries: -1, DialTimeout: time.Second,
	}); err == nil {
		t.Error("dial succeeded after daemon shutdown")
	}
}

// TestDaemonPreloadedCSV: the -csv path — the daemon prepares the CSV with
// the same grid/domain transformation the client applies, an omit-points
// handshake matches via the checksum, and a client prepared with a
// different grid is refused instead of silently served different data.
func TestDaemonPreloadedCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	raw := make([][]float64, 300)
	var csv strings.Builder
	for i := range raw {
		raw[i] = []float64{rng.Float64(), rng.Float64()}
		fmt.Fprintf(&csv, "%v,%v\n", raw[i][0], raw[i][1])
	}
	path := filepath.Join(t.TempDir(), "points.csv")
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	addr, shutdown := startDaemon(t, "-csv", path, "-grid", "4096")
	defer shutdown()

	grid, _ := geometry.NewGrid(1<<12, 2)
	prepared, err := prepare(raw, 1<<12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int32, prepared.N())
	for i := range members {
		members[i] = int32(i)
	}
	cfg := geometry.ShardConfig{
		Points:  prepared,
		Members: members,
		Cell:    geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()},
	}
	rs, err := transport.DialShard(context.Background(), addr, cfg, transport.Options{OmitPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// The omit-points answers must match a points-shipping session bit
	// for bit.
	rs2, err := transport.DialShard(context.Background(), addr, cfg, transport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	a, err := rs.PartialCounts(context.Background(), geometry.EpochFrozen, 2, 4*grid.RadiusUnit(), 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs2.PartialCounts(context.Background(), geometry.EpochFrozen, 2, 4*grid.RadiusUnit(), 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("preloaded counts[%d] = %d, points-shipping session says %d", i, a[i], b[i])
		}
	}

	// A client that prepared the same CSV on a different grid must be
	// refused by the checksum, not served silently-different data.
	other, err := prepare(raw, 1<<10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	badCfg := cfg
	badCfg.Points = other
	_, err = transport.DialShard(context.Background(), addr, badCfg, transport.Options{OmitPoints: true})
	var te *transport.Error
	if !errors.As(err, &te) || te.Kind != transport.KindRemote {
		t.Fatalf("grid-mismatched preload: err = %v, want KindRemote", err)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("mismatch error does not mention the checksum: %v", err)
	}
}

// TestPrepareMatchesDatasetOpen: the daemon's CSV preparation must be the
// same transformation the client library applies, or the preload path
// would never checksum-match.
func TestPrepareMatchesDatasetOpen(t *testing.T) {
	raw := [][]float64{{3.25}, {7.5}, {-2}, {9.999}}
	prepared, err := prepare(raw, 1<<16, -10, 10)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := geometry.NewGrid(1<<16, 1)
	for i, p := range raw {
		u := (p[0] - (-10)) / 20
		q := grid.Quantize([]float64{u})
		if prepared.At(i, 0) != q[0] {
			t.Errorf("prepare(%v) = %v, want %v", p, prepared.At(i, 0), q[0])
		}
	}
	if _, err := prepare(raw, 1<<16, 5, 5); err == nil {
		t.Error("degenerate domain accepted")
	}
}
