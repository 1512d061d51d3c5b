// Remote: the shard transport — the same seeded query answered by one
// in-process index and by shard servers behind the wire protocol, checked
// bit-identical.
//
// The scalable ball index answers every query from the counts of each
// row, and a shard can count its own rows against all rows, so a shard
// does not have to live in this process: this program starts real shard servers (the same code
// cmd/shardserver runs) on loopback TCP, opens one Dataset handle that
// computes locally and one that computes through the servers, and runs
// the same seeded query on both. The releases must agree bit for bit —
// the program exits nonzero if they do not, so CI running it is an
// equivalence proof, not a demo that merely prints.
//
// Run it with:
//
//	go run ./examples/remote
//	go run ./examples/remote -n 6000 -shards 2   # small, CI-sized
//	go run ./examples/remote -n 6001 -shards 3   # uneven owned-row counts
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"privcluster"
	"privcluster/internal/transport"
)

func main() {
	n := flag.Int("n", 50000, "number of points")
	shards := flag.Int("shards", 2, "shard servers to start")
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

	// Shard servers on loopback TCP — in production these are
	// cmd/shardserver daemons on other machines.
	addrs := make([]string, *shards)
	servers := make([]*transport.Server, *shards)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		servers[i] = transport.NewServer(transport.ServerOptions{})
		go servers[i].Serve(l)
	}
	fmt.Printf("started %d shard servers on %v\n", *shards, addrs)

	run := func(o privcluster.DatasetOptions) (privcluster.Cluster, time.Duration) {
		ds, err := privcluster.Open(points, o)
		if err != nil {
			log.Fatal(err)
		}
		defer ds.Close()
		start := time.Now()
		c, err := ds.FindCluster(ctx, t, q)
		if err != nil {
			log.Fatal(err)
		}
		return c, time.Since(start)
	}

	// One single-replica partition per server (see examples/replicated for
	// replica sets and failover).
	parts := make([][]string, len(addrs))
	for i, a := range addrs {
		parts[i] = []string{a}
	}
	local, dLocal := run(privcluster.DatasetOptions{})
	remote, dRemote := run(privcluster.DatasetOptions{Placement: &privcluster.Placement{Partitions: parts}})

	fmt.Printf("local (one in-process index): center %.4v  radius %.4g  [%v]\n",
		local.Center, local.Radius, dLocal)
	fmt.Printf("remote (%d shard servers):    center %.4v  radius %.4g  [%v]\n",
		*shards, remote.Center, remote.Radius, dRemote)

	if local.Radius != remote.Radius || local.RawRadius != remote.RawRadius ||
		local.Center[0] != remote.Center[0] || local.Center[1] != remote.Center[1] {
		log.Fatalf("MISMATCH: remote release differs from local:\nlocal:  %+v\nremote: %+v", local, remote)
	}
	fmt.Println("releases are bit-identical: the wire moved counts, not the privacy analysis")

	for _, srv := range servers {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			cancel()
			log.Fatalf("server shutdown: %v", err)
		}
		cancel()
	}
	fmt.Println("shard servers drained and stopped")
}
