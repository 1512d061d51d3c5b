package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"privcluster"
	"privcluster/internal/transport"
)

// startShardServers brings up n wire-protocol shard servers on real TCP
// listeners on localhost and returns their addresses.
func startShardServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		srv := transport.NewServer(transport.ServerOptions{})
		go srv.Serve(l)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return addrs
}

// TestRemoteEndToEnd: the -remote flag routes onecluster's queries
// through shard servers on localhost, and every printed release — single
// query, k-cover, the -queries handle loop — is byte-identical to the
// local run under the same seed. The dataset exceeds ExactIndexMaxN so
// the local comparison runs the scalable backend, the one remote
// execution presumes.
func TestRemoteEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]privcluster.Point, 0, 6000)
	for i := 0; i < 3800; i++ {
		pts = append(pts, privcluster.Point{0.4 + 0.02*rng.Float64(), 0.6 + 0.02*rng.Float64()})
	}
	for len(pts) < 6000 {
		pts = append(pts, privcluster.Point{rng.Float64(), rng.Float64()})
	}
	addrs := startShardServers(t, 2)

	place, err := parseRemote(strings.Join(addrs, ","))
	if err != nil {
		t.Fatal(err)
	}

	// -queries mode: remote output must equal the local handle's output.
	var local, remote bytes.Buffer
	if err := runQueries(&local, pts, "3000,3200", "", 4, 0.05, 0.1, 1024, 7, false, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := runQueries(&remote, pts, "3000,3200", "", 4, 0.05, 0.1, 1024, 7, false, place, false); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() {
		t.Errorf("-queries releases differ:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}

	// The "a|b" replica syntax: two replicas per partition must print the
	// exact same releases — the replication layer is invisible to output.
	extra := startShardServers(t, 2)
	replicated, err := parseRemote(addrs[0] + "|" + extra[0] + "," + addrs[1] + "|" + extra[1])
	if err != nil {
		t.Fatal(err)
	}
	var repl bytes.Buffer
	if err := runQueries(&repl, pts, "3000,3200", "", 4, 0.05, 0.1, 1024, 7, false, replicated, false); err != nil {
		t.Fatal(err)
	}
	if local.String() != repl.String() {
		t.Errorf("replicated -queries releases differ:\nlocal:\n%s\nreplicated:\n%s", local.String(), repl.String())
	}

	// Single-shot and k-cover -remote paths: byte-identical to the same
	// seeded queries on a local handle.
	runLocal := func(t_, k int) string {
		t.Helper()
		var buf bytes.Buffer
		ds, err := privcluster.Open(pts, privcluster.DatasetOptions{GridSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		q := privcluster.QueryOptions{Epsilon: 4, Delta: 0.05, Beta: 0.1, Seed: 11}
		if k <= 1 {
			c, err := ds.FindCluster(context.Background(), t_, q)
			if err != nil {
				t.Fatal(err)
			}
			printCluster(&buf, c, pts)
		} else {
			cs, err := ds.FindClusters(context.Background(), k, t_, q)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range cs {
				buf.WriteString("cluster ")
				buf.WriteString(string(rune('0' + i + 1)))
				buf.WriteString(":\n")
				printCluster(&buf, c, pts)
			}
		}
		return buf.String()
	}
	var buf bytes.Buffer
	if err := runHandle(&buf, pts, 3000, 1, 4, 0.05, 0.1, 1024, 11, place, false); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), runLocal(3000, 1); got != want {
		t.Errorf("-remote single query differs:\nremote:\n%s\nlocal:\n%s", got, want)
	}
	buf.Reset()
	if err := runHandle(&buf, pts, 2500, 2, 4, 0.05, 0.1, 1024, 11, place, false); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), runLocal(2500, 2); got != want {
		t.Errorf("-remote k-cover differs:\nremote:\n%s\nlocal:\n%s", got, want)
	}

	// A dead address list fails with a useful error instead of hanging.
	dead := &privcluster.Placement{Partitions: [][]string{{"127.0.0.1:1"}}}
	if err := runHandle(&buf, pts, 3000, 1, 4, 0.05, 0.1, 1024, 11, dead, false); err == nil {
		t.Error("query against a dead shard address succeeded")
	}
}

func TestParseRemote(t *testing.T) {
	if got, err := parseRemote(""); got != nil || err != nil {
		t.Errorf("parseRemote(\"\") = %v, %v", got, err)
	}
	got, err := parseRemote(" a:1 , b:2 ")
	if err != nil || len(got.Partitions) != 2 ||
		got.Partitions[0][0] != "a:1" || got.Partitions[1][0] != "b:2" {
		t.Errorf("parseRemote flat = %v, %v", got, err)
	}
	got, err = parseRemote("a:1|b:2, c:3 | d:4")
	if err != nil || len(got.Partitions) != 2 ||
		strings.Join(got.Partitions[0], " ") != "a:1 b:2" ||
		strings.Join(got.Partitions[1], " ") != "c:3 d:4" {
		t.Errorf("parseRemote replicas = %v, %v", got, err)
	}
	if _, err := parseRemote("a:1|,b:2"); err == nil {
		t.Error("empty replica accepted")
	}
}

func TestResolvePlacement(t *testing.T) {
	if _, err := resolvePlacement("a:1", "file.json"); err == nil {
		t.Error("-remote with -placement accepted")
	}
	if p, err := resolvePlacement("", ""); p != nil || err != nil {
		t.Errorf("no flags: %v, %v", p, err)
	}
}
