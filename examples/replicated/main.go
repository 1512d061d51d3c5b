// Replicated: shard failover under fire — the same seeded query answered
// by one in-process index, by a replicated placement, and by the same placement
// with one replica hard-killed midway through the query, all checked
// bit-identical.
//
// Every replica of a shard partition serves the same points, and the ball
// index's bulk counts are pure reads — so which replica answers is
// invisible to releases, and a replica death costs a failover hop, never
// correctness. This program makes that concrete: it starts shard servers
// on loopback TCP (the same code cmd/shardserver runs) in two partitions
// of two replicas, runs a seeded query, then re-opens the handle and runs
// the query again while a goroutine hard-kills a primary replica
// mid-sweep. All three releases must agree bit for bit — the program
// exits nonzero if they do not, so CI running it is an equivalence proof
// of the failover path, not a demo that merely prints.
//
// The failover run is traced (privcluster.WithTrace): the released ball is
// identical, and the span tree's failover counters show the recovery the
// release hides. Progress goes through the module's structured logger
// (internal/obs), the same key=value lines the daemons emit.
//
// Run it with:
//
//	go run ./examples/replicated
//	go run ./examples/replicated -n 6000   # small, CI-sized
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"privcluster"
	"privcluster/internal/obs"
	"privcluster/internal/transport"
)

var logger = obs.NewLogger(os.Stderr, 0, 0)

// fatal logs the failure at Error and exits non-zero — the program is a
// self-checking example, so any violated expectation must fail CI.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	n := flag.Int("n", 50000, "number of points")
	flag.Parse()

	rng := rand.New(rand.NewSource(1))
	points := make([]privcluster.Point, 0, *n)
	for i := 0; i < 3**n/5; i++ {
		points = append(points, privcluster.Point{
			0.4 + 0.03*(rng.Float64()*2-1),
			0.6 + 0.03*(rng.Float64()*2-1),
		})
	}
	for len(points) < *n {
		points = append(points, privcluster.Point{rng.Float64(), rng.Float64()})
	}
	t := *n / 2
	ctx := context.Background()
	q := privcluster.QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 7}

	// Four shard servers on loopback TCP: two partitions, two replicas
	// each. In production these are cmd/shardserver daemons on other
	// machines and the placement comes from a cmd/shardctl file.
	const replicas, partitions = 2, 2
	addrs := make([]string, partitions*replicas)
	servers := make([]*transport.Server, len(addrs))
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal("listen", "err", err)
		}
		addrs[i] = l.Addr().String()
		servers[i] = transport.NewServer(transport.ServerOptions{Log: logger})
		go servers[i].Serve(l)
	}
	place := &privcluster.Placement{Partitions: [][]string{
		{addrs[0], addrs[1]},
		{addrs[2], addrs[3]},
	}}
	logger.Info("shard servers started",
		"count", len(addrs), "partition0", place.Partitions[0], "partition1", place.Partitions[1])

	run := func(qctx context.Context, o privcluster.DatasetOptions, qo privcluster.QueryOptions, during func()) (privcluster.Cluster, time.Duration) {
		ds, err := privcluster.Open(points, o)
		if err != nil {
			fatal("open dataset", "err", err)
		}
		defer ds.Close()
		if during != nil {
			go during()
		}
		start := time.Now()
		c, err := ds.FindCluster(qctx, t, qo)
		if err != nil {
			fatal("query", "err", err)
		}
		return c, time.Since(start)
	}

	local, dLocal := run(ctx, privcluster.DatasetOptions{}, q, nil)
	healthy, dHealthy := run(ctx, privcluster.DatasetOptions{Placement: place}, q, nil)

	// Run the query again with partition 0's primary replica hard-killed
	// shortly after the sweep starts: connections drop mid-response and
	// later dials are refused, so the index must fail over to the sibling.
	// This run is traced — the span counters record the failover the
	// bit-identical release hides.
	victim := servers[0]
	var stats privcluster.QueryStats
	tq := q
	tq.Stats = &stats
	killed, dKilled := run(privcluster.WithTrace(ctx), privcluster.DatasetOptions{Placement: place}, tq, func() {
		time.Sleep(dHealthy / 4)
		victim.Close()
		logger.Info("killed replica mid-query", "addr", addrs[0])
	})

	report := func(name string, c privcluster.Cluster, d time.Duration) {
		logger.Info("release", "mode", name,
			"center", fmt.Sprintf("%.4v", c.Center), "radius", fmt.Sprintf("%.4g", c.Radius),
			"elapsed", d.Round(time.Millisecond).String())
	}
	report("local (one in-process index)", local, dLocal)
	report("replicated", healthy, dHealthy)
	report("failover", killed, dKilled)

	var failovers, hedges int64
	for _, st := range stats.Stages {
		failovers += st.Counters["failovers"]
		hedges += st.Counters["hedges_fired"]
	}
	logger.Info("failover run traced", "trace_id", stats.TraceID,
		"spans", len(stats.Stages), "failovers", failovers, "hedges_fired", hedges)

	for _, c := range []struct {
		name string
		got  privcluster.Cluster
	}{{"replicated", healthy}, {"failover", killed}} {
		if c.got.Radius != local.Radius || c.got.RawRadius != local.RawRadius ||
			c.got.Center[0] != local.Center[0] || c.got.Center[1] != local.Center[1] {
			fatal("release differs from local", "mode", c.name,
				"local", fmt.Sprintf("%+v", local), "got", fmt.Sprintf("%+v", c.got))
		}
	}
	logger.Info("all three releases are bit-identical: replica failover moved connections, not the privacy analysis")

	for i, srv := range servers {
		if srv == victim {
			continue // already hard-killed
		}
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			cancel()
			fatal("server shutdown", "server", i, "err", err)
		}
		cancel()
	}
	logger.Info("surviving shard servers drained and stopped")
}
