package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// assertSnapshotMatches compares a pinned snapshot against a fresh
// CellIndex over the same rows: the same points and bit-identical L̂ step
// functions at several t — the wire-level restatement of the epoch
// contract: a pinned snapshot is bit-identical to Open on that epoch's
// point set.
func assertSnapshotMatches(t *testing.T, tag string, got geometry.BallIndex, ref *geometry.CellIndex) {
	t.Helper()
	n := ref.N()
	if got.N() != n {
		t.Fatalf("%s: N = %d, want %d", tag, got.N(), n)
	}
	gf, rf := got.Frame(), ref.Frame()
	for i := 0; i < n; i++ {
		for a, x := range rf.Row(i) {
			if gf.Row(i)[a] != x {
				t.Fatalf("%s: frame row %d diverged", tag, i)
			}
		}
	}
	assertSameSteps(t, tag, got, ref, 1, 2, max(1, n/3), n)
}

// TestMutableRemoteMatchesFresh: a MutableShardedIndex over remote epoch
// sessions answers every snapshot bit-identically to a fresh CellIndex on
// exactly that epoch's point set — through appends, merges, and deletes.
func TestMutableRemoteMatchesFresh(t *testing.T) {
	ctx := context.Background()
	pts := testPoints(t, 11, 400, 2)
	opts := testCellOptions(2)
	n0 := 300
	addrs, copts := startServers(t, 2, ServerOptions{})

	m, err := geometry.NewMutableShardedIndexBackends(ctx, frameOf(t, pts[:n0]), geometry.ShardedIndexOptions{
		Shards: 2, Cell: opts,
	}, MutableShardDialer(addrs, copts))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	freshAt := func(rows []vec.Vector) *geometry.CellIndex {
		return cellIndexOf(t, rows, opts)
	}

	snap := func(e geometry.Epoch) geometry.BallIndex {
		ix, err := m.Snapshot(ctx, e)
		if err != nil {
			t.Fatalf("Snapshot(%d): %v", e, err)
		}
		return ix
	}

	e1 := m.Epoch()
	assertSnapshotMatches(t, "epoch1", snap(e1), freshAt(pts[:n0]))

	// Two append batches, checked at each resulting epoch.
	cut := n0 + 60
	ids1, e2, err := m.Append(ctx, frameOf(t, pts[n0:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids1) != cut-n0 || e2 != e1+1 {
		t.Fatalf("append 1: %d ids, epoch %d", len(ids1), e2)
	}
	assertSnapshotMatches(t, "epoch2", snap(e2), freshAt(pts[:cut]))

	_, e3, err := m.Append(ctx, frameOf(t, pts[cut:]))
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotMatches(t, "epoch3", snap(e3), freshAt(pts))
	// The older pin still answers for its own epoch.
	assertSnapshotMatches(t, "epoch2-after-3", snap(e2), freshAt(pts[:cut]))

	// Merge folds the deltas into the base without changing any answer.
	if err := m.Merge(ctx); err != nil {
		t.Fatal(err)
	}
	assertSnapshotMatches(t, "epoch3-merged", snap(e3), freshAt(pts))

	// Delete a mix of base and appended rows; survivors keep input order.
	del := []uint64{3, 7, uint64(n0) + 5, uint64(cut) + 1}
	gone := make(map[uint64]bool, len(del))
	for _, id := range del {
		gone[id] = true
	}
	e4, err := m.Delete(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	if e4 != e3+1 {
		t.Fatalf("delete advanced to %d, want %d", e4, e3+1)
	}
	var surv []vec.Vector
	for i, p := range pts {
		if !gone[uint64(i)] {
			surv = append(surv, p)
		}
	}
	assertSnapshotMatches(t, "epoch4-deleted", snap(e4), freshAt(surv))
}

// TestMutableSessionGuards: mutation calls on an immutable session are
// refused client-side, a frozen-epoch query on a mutable session is
// refused by the server, and a broken mutable session is never silently
// reconnected.
func TestMutableSessionGuards(t *testing.T) {
	pts := testPoints(t, 5, 120, 2)
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	cfg := geometry.ShardConfig{Points: frameOf(t, pts), Members: members, Cell: testCellOptions(2)}

	addrs, copts := startServers(t, 1, ServerOptions{})

	// Immutable session: mutations are refused before touching the wire.
	rs, err := DialShard(context.Background(), addrs[0], cfg, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.Append(context.Background(), frameOf(t, pts[:1]), nil, []uint64{999}); err == nil ||
		!strings.Contains(err.Error(), "immutable") {
		t.Fatalf("Append on immutable session: %v, want immutable-session error", err)
	}
	if _, err := rs.Delete(context.Background(), []uint64{0}); err == nil {
		t.Fatal("Delete on immutable session succeeded")
	}
	if err := rs.Merge(context.Background()); err == nil {
		t.Fatal("Merge on immutable session succeeded")
	}

	// Mutable session: epoch 0 queries are a protocol misuse the server
	// rejects without dropping the session.
	mcopts := copts
	mcopts.Mutable = true
	ms, err := DialShard(context.Background(), addrs[0], cfg, mcopts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := ms.DupCounts(context.Background(), geometry.EpochFrozen); err == nil {
		t.Fatal("frozen-epoch DupCounts on mutable session succeeded")
	}
	// The bad request left the session at epoch 1: it answers there and
	// not one epoch on.
	if _, err := ms.DupCounts(context.Background(), 1); err != nil {
		t.Fatalf("DupCounts at epoch 1 after bad request: %v", err)
	}
	if _, err := ms.DupCounts(context.Background(), 2); err == nil {
		t.Fatal("DupCounts at epoch 2 after bad request succeeded; the epoch advanced")
	}
}

// TestMutableSessionNotResumed: once a mutable session's connection dies,
// every further call fails — the client must not re-dial and silently
// recreate an empty-delta session.
func TestMutableSessionNotResumed(t *testing.T) {
	pts := testPoints(t, 9, 100, 2)
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	cfg := geometry.ShardConfig{Points: frameOf(t, pts), Members: members, Cell: testCellOptions(2)}

	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)

	opts := Options{Dial: ln.Dial, Mutable: true, Retries: 3}
	rs, err := DialShard(context.Background(), "srv", cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.DupCounts(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	srv.Close() // slams every connection

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := rs.DupCounts(ctx, 1); err == nil {
		t.Fatal("call on a dead mutable session succeeded")
	}
	// The second call must hit the session-lost guard, not a re-dial.
	var te *Error
	_, err = rs.DupCounts(ctx, 1)
	if !errors.As(err, &te) || te.Kind != KindIO || !strings.Contains(err.Error(), "session lost") {
		t.Fatalf("after session death: %v, want io session-lost error", err)
	}
}
