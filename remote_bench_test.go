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

// BenchmarkRemoteLoopback measures the shard transport's overhead against
// the local index at n = 100k: both arms run the identical cold
// preprocessing (index construction + the BuildLStep radius sweep, the
// pipeline's dominant cost) — "inproc" on the one CellIndex a handle
// without a Placement builds, "loopback" over S = 2 partitions through the
// full wire protocol against single-replica shard servers in this process
// (handshake ships the 100k points, every sweep level is one round trip
// per shard carrying 200 KB of counts, one slot per row the shard owns).
// On one machine the delta is pure transport + the backend decomposition's
// second cell structure per shard (an index over all rows besides the one
// over its own); across real machines the same protocol buys S-fold
// compute — see the cost model in the package documentation.
//
//	go test -bench BenchmarkRemoteLoopback -benchmem
func BenchmarkRemoteLoopback(b *testing.B) {
	const n = 100000
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, n, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	frame := benchFrame(b, pts)
	b.Run("inproc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix, err := core.NewBallIndexFrame(frame, grid, core.IndexScalable, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ix.BuildLStep(context.Background(), tt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loopback", func(b *testing.B) {
		ln := transport.NewLoopbackNet()
		parts := make([][]string, 2)
		for i := range parts {
			addr := fmt.Sprintf("shard-%d", i)
			parts[i] = []string{addr}
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
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := core.NewReplicatedBallIndexFrame(context.Background(), frame, grid, 0, parts,
				transport.ReplicaOptions{Options: transport.Options{Dial: ln.Dial}})
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
