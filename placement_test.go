package privcluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privcluster/internal/transport"
)

// placementOf shapes addrs into p partitions of r replicas.
func placementOf(addrs []string, p, r int, dial func(context.Context, string) (net.Conn, error)) *Placement {
	parts := make([][]string, p)
	for i := range parts {
		parts[i] = addrs[i*r : (i+1)*r]
	}
	return &Placement{Partitions: parts, Dial: dial}
}

// TestPlacementReleaseEquivalence pins the tentpole at the public API:
// seeded releases through a Placement — R ∈ {1, 2, 3} replicas per
// partition, hedging off and on — are bit-identical to local execution,
// and the deprecated RemoteShards form releases bit-identically to the
// equivalent single-replica Placement (it IS one, constructed internally).
func TestPlacementReleaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02) // scalable backend
	ctx := context.Background()
	q := QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 11}

	release := func(o DatasetOptions) Cluster {
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
		return c
	}
	assertSame := func(name string, got, want Cluster) {
		t.Helper()
		if got.Radius != want.Radius || got.RawRadius != want.RawRadius ||
			got.Center[0] != want.Center[0] || got.Center[1] != want.Center[1] {
			t.Errorf("%s release differs: %+v vs %+v", name, got, want)
		}
	}

	ref := release(DatasetOptions{Shards: 2})
	const nparts = 2
	for _, r := range []int{1, 2, 3} {
		addrs, ln := startLoopbackServers(t, nparts*r)
		p := placementOf(addrs, nparts, r, ln.Dial)
		p.ProbeInterval = -1
		assertSame(fmt.Sprintf("R=%d", r), release(DatasetOptions{Placement: p}), ref)
		hedged := placementOf(addrs, nparts, r, ln.Dial)
		hedged.ProbeInterval = -1
		hedged.HedgeDelay = time.Nanosecond
		assertSame(fmt.Sprintf("R=%d hedged", r), release(DatasetOptions{Placement: hedged}), ref)
	}

	// Deprecated flat form vs its structured equivalent.
	addrs, ln := startLoopbackServers(t, nparts)
	old := release(DatasetOptions{RemoteShards: addrs, RemoteDial: ln.Dial})
	assertSame("RemoteShards wrapper", old, ref)
	assertSame("single-replica Placement", release(DatasetOptions{Placement: placementOf(addrs, nparts, 1, ln.Dial)}), ref)
}

// chokeDial wraps a dial func so connections to victim die once a shared
// read-byte budget is spent, and every later dial to it is refused — a
// replica crash the client's own reconnect cannot undo.
func chokeDial(dial func(context.Context, string) (net.Conn, error), victim string, budget int64) (func(context.Context, string) (net.Conn, error), *atomic.Bool) {
	var remaining atomic.Int64
	remaining.Store(budget)
	dead := &atomic.Bool{}
	return func(ctx context.Context, addr string) (net.Conn, error) {
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
		return &chokedConn{Conn: c, budget: &remaining, dead: dead}, nil
	}, dead
}

type chokedConn struct {
	net.Conn
	budget *atomic.Int64
	dead   *atomic.Bool
}

func (c *chokedConn) Read(p []byte) (int, error) {
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

// TestPlacementFailoverMidQuery kills one replica partway through the
// query's sweep at the public API layer: the release must come out
// bit-identical to local execution — the death is invisible except for the
// failover hop.
func TestPlacementFailoverMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02)
	ctx := context.Background()
	q := QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: 13}

	local, err := Open(pts, DatasetOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	ref, err := local.FindCluster(ctx, 3000, q)
	if err != nil {
		t.Fatal(err)
	}

	// The victim dies after ~40KB read — past the handshake (the OPEN echo
	// is tiny) and a few of the sweep's 4·n ≈ 24KB count responses.
	addrs, ln := startLoopbackServers(t, 4)
	dial, dead := chokeDial(ln.Dial, addrs[0], 40_000)
	p := placementOf(addrs, 2, 2, dial)
	p.ProbeInterval = -1
	ds, err := Open(pts, DatasetOptions{Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	got, err := ds.FindCluster(ctx, 3000, q)
	if err != nil {
		t.Fatalf("FindCluster through replica death: %v", err)
	}
	if got.Radius != ref.Radius || got.RawRadius != ref.RawRadius ||
		got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
		t.Errorf("failover release differs: %+v vs %+v", got, ref)
	}
	if !dead.Load() {
		t.Error("victim outlived the query — the kill never happened")
	}
}

// TestPlacementCacheKey is the cache-ambiguity regression: the structural
// key must separate every distinct placement — including the collisions
// the old comma-join was blind to — while the deprecated flat form shares
// its equivalent Placement's identity (one wrapper, one index).
func TestPlacementCacheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02)

	key := func(o DatasetOptions) indexKey {
		t.Helper()
		ds, err := Open(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		return ds.effectiveKey()
	}

	// The comma-join ambiguity: one shard at "a,b" vs two shards "a", "b".
	joined := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a,b"}}}})
	split := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a"}, {"b"}}}})
	if joined.remote == split.remote {
		t.Fatalf("[\"a,b\"] and [\"a\"],[\"b\"] share a cache key: %q", joined.remote)
	}

	// Replica structure is identity: 1 partition × 2 replicas vs
	// 2 partitions × 1 replica over the same addresses build different
	// indexes (different shard counts!) and must never share a slot.
	oneOf2 := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a", "b"}}}})
	twoOf1 := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a"}, {"b"}}}})
	if oneOf2 == twoOf1 {
		t.Fatalf("{a,b} and {a},{b} placements share a cache key: %+v", oneOf2)
	}

	// Length-prefixing defeats separator injection inside addresses.
	inj := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a|1:b"}}}})
	two := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a", "b"}}}})
	if inj.remote == two.remote {
		t.Fatalf("injected separator collides: %q", inj.remote)
	}

	// The deprecated wrapper IS the single-replica placement: same key,
	// same cached index.
	old := key(DatasetOptions{RemoteShards: []string{"a", "b"}})
	structured := key(DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a"}, {"b"}}}})
	if old != structured {
		t.Fatalf("RemoteShards key %+v != equivalent Placement key %+v", old, structured)
	}

	// Knobs and Dial are transport mechanics, not identity.
	knobs := key(DatasetOptions{Placement: &Placement{
		Partitions: [][]string{{"a"}, {"b"}},
		Retries:    3, HedgeDelay: time.Millisecond, ProbeInterval: time.Second,
	}})
	if knobs != structured {
		t.Fatalf("failover knobs changed the cache key: %+v vs %+v", knobs, structured)
	}
}

// TestPlacementValidation covers the Open-time rejections of malformed
// placements and conflicting option forms.
func TestPlacementValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts, _ := plantedPoints(rng, 100, 60, 2, 0.02)
	cases := []struct {
		name string
		o    DatasetOptions
	}{
		{"no partitions", DatasetOptions{Placement: &Placement{}}},
		{"empty partition", DatasetOptions{Placement: &Placement{Partitions: [][]string{{}}}}},
		{"empty replica", DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a", ""}}}}},
		{"duplicate replica", DatasetOptions{Placement: &Placement{Partitions: [][]string{{"a", "a"}}}}},
		{"placement plus RemoteShards", DatasetOptions{
			Placement:    &Placement{Partitions: [][]string{{"a"}}},
			RemoteShards: []string{"b"},
		}},
		{"placement plus RemoteDial", DatasetOptions{
			Placement:  &Placement{Partitions: [][]string{{"a"}}},
			RemoteDial: func(context.Context, string) (net.Conn, error) { return nil, nil },
		}},
		{"mutable multi-replica", DatasetOptions{
			Mutable:   true,
			Placement: &Placement{Partitions: [][]string{{"a", "b"}}},
		}},
	}
	for _, tc := range cases {
		if _, err := Open(pts, tc.o); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestPlacementJSON: the file schema round-trips through EncodeJSON /
// ParsePlacement / LoadPlacement, and typos in operational configs fail
// loudly.
func TestPlacementJSON(t *testing.T) {
	p := &Placement{
		Partitions:    [][]string{{"host-a:9001", "host-b:9001"}, {"host-c:9001"}},
		Retries:       2,
		HedgeDelay:    20 * time.Millisecond,
		ProbeInterval: 2 * time.Second,
		DialTimeout:   10 * time.Second,
	}
	data, err := p.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "placement.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacement(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.cacheKey() != p.cacheKey() {
		t.Fatalf("round trip changed partitions: %q vs %q", got.cacheKey(), p.cacheKey())
	}
	if got.Retries != p.Retries || got.HedgeDelay != p.HedgeDelay ||
		got.ProbeInterval != p.ProbeInterval || got.DialTimeout != p.DialTimeout {
		t.Fatalf("round trip changed knobs: %+v vs %+v", got, p)
	}

	for name, bad := range map[string]string{
		"unknown field":   `{"partitions": [["a"]], "hedge_ms": 5}`,
		"no partitions":   `{}`,
		"empty partition": `{"partitions": [[]]}`,
		"syntax":          `{"partitions": [`,
	} {
		if _, err := ParsePlacement([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestPlacementDurationOverflow: a *_ms value whose conversion to a
// time.Duration would overflow is rejected with an error naming the field,
// instead of wrapping to a nonsense (possibly negative) duration.
func TestPlacementDurationOverflow(t *testing.T) {
	for _, field := range []string{"hedge_delay_ms", "probe_interval_ms", "dial_timeout_ms"} {
		for _, ms := range []string{"9300000000000", "-9300000000000", "9223372036854775807"} {
			in := fmt.Sprintf(`{"partitions":[["a:1"]],%q:%s}`, field, ms)
			p, err := ParsePlacement([]byte(in))
			if err == nil {
				t.Errorf("%s: accepted as %+v", in, p)
				continue
			}
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%s: error %q does not name the field", in, err)
			}
		}
		// The largest whole-millisecond duration still parses.
		top := int64(math.MaxInt64 / int64(time.Millisecond))
		in := fmt.Sprintf(`{"partitions":[["a:1"]],%q:%d}`, field, top)
		if _, err := ParsePlacement([]byte(in)); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
}

// FuzzParsePlacement: every input ParsePlacement accepts survives
// EncodeJSON → ParsePlacement unchanged.
func FuzzParsePlacement(f *testing.F) {
	f.Add([]byte(`{"partitions":[["a:1","b:1"],["c:1"]],"retries":2,"hedge_delay_ms":20}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlacement(data)
		if err != nil {
			return
		}
		enc, err := p.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted placement does not encode: %v", err)
		}
		q, err := ParsePlacement(enc)
		if err != nil {
			t.Fatalf("encoded placement does not parse: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the placement: %+v -> %+v", p, q)
		}
	})
}

// TestPlacementAllDeadAndPreCancel: every replica dead surfaces one typed
// transport error; a context cancelled before the query spends no budget
// through the replicated path.
func TestPlacementAllDeadAndPreCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts, _ := plantedPoints(rng, 5000, 3000, 2, 0.02)
	deadNet := transport.NewLoopbackNet() // nothing listens
	p := &Placement{Partitions: [][]string{{"gone-1", "gone-2"}}, Dial: deadNet.Dial, ProbeInterval: -1}
	ds, err := Open(pts, DatasetOptions{Placement: p, Budget: Budget{Epsilon: 10, Delta: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	// Pre-cancelled: refused before admission, before any dial.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.FindCluster(ctx, 3000, QueryOptions{Epsilon: 2, Delta: 1e-5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if spent := ds.Spent(); !spent.IsZero() {
		t.Fatalf("pre-cancelled query spent %+v", spent)
	}

	// All replicas dead: one typed error, promptly.
	start := time.Now()
	_, err = ds.FindCluster(context.Background(), 3000, QueryOptions{Epsilon: 2, Delta: 1e-5})
	var te *transport.Error
	if !errors.As(err, &te) {
		t.Fatalf("all-dead query: err = %v, want *transport.Error", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("all-dead error took %v", elapsed)
	}
}
