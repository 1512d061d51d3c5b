package privcluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/geometry"
	"privcluster/internal/transport"
)

// BenchmarkReplicatedLoopback measures what the replication layer costs on
// top of the plain shard transport at n = 50k over 2 partitions: "R=1" is
// a single-replica placement (the wrapper-free fast path: one plain
// connection per partition, no replication layer), "R=2" adds a standby
// replica per partition (failover machinery armed, never fired), and
// "R=2-hedged" additionally re-issues every straggler after 1ms. Each
// iteration is the cold path: dial + handshake (shipping the 50k points to
// every dialed replica) + the BuildLStep radius sweep. The allocs/op gate
// catches the replication layer silently bloating the per-call path;
// hedging's extra cost is duplicated shard compute, visible in ns/op only.
//
//	go test -bench BenchmarkReplicatedLoopback -benchmem
func BenchmarkReplicatedLoopback(b *testing.B) {
	const n = 50000
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, n, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	frame := benchFrame(b, pts)
	for _, cfg := range []struct {
		name  string
		r     int
		hedge time.Duration
	}{
		{"R=1", 1, 0},
		{"R=2", 2, 0},
		{"R=2-hedged", 2, time.Millisecond},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ln := transport.NewLoopbackNet()
			parts := make([][]string, 2)
			for p := range parts {
				parts[p] = make([]string, cfg.r)
				for r := range parts[p] {
					addr := fmt.Sprintf("shard-%d-replica-%d", p, r)
					l, err := ln.Listen(addr)
					if err != nil {
						b.Fatal(err)
					}
					srv := transport.NewServer(transport.ServerOptions{})
					go srv.Serve(l)
					b.Cleanup(func() {
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						srv.Shutdown(ctx)
					})
					parts[p][r] = addr
				}
			}
			ropts := transport.ReplicaOptions{
				Options:       transport.Options{Dial: ln.Dial},
				HedgeDelay:    cfg.hedge,
				ProbeInterval: -1, // nothing goes down; keep tickers out of the numbers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := core.NewReplicatedBallIndexFrame(context.Background(), frame, grid, 0, parts, ropts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ix.BuildLStep(context.Background(), tt); err != nil {
					b.Fatal(err)
				}
				if c, ok := ix.(interface{ Close() error }); ok {
					c.Close()
				}
			}
		})
	}
}
