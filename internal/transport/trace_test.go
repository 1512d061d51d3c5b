package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"

	"privcluster/internal/geometry"
	"privcluster/internal/obs"
)

// dialTestShard opens one whole-dataset shard session against a fresh
// loopback server and returns the client, the server, and a cleanup.
func dialTestShard(t *testing.T, sopts ServerOptions) (*RemoteShard, *Server) {
	t.Helper()
	pts := testPoints(t, 77, 80, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sopts)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	rs, err := DialShard(context.Background(), "srv", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: testCellOptions(2),
	}, Options{Dial: func(ctx context.Context, addr string) (net.Conn, error) {
		return ln.Dial(ctx, addr)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return rs, srv
}

// remotePartials runs rs.PartialCounts into a fresh buffer, one slot per
// owned row of the shard's config.
func remotePartials(ctx context.Context, rs *RemoteShard, epoch geometry.Epoch, j int, r float64, limit int32) ([]int32, error) {
	out := make([]int32, len(rs.cfg.Owned))
	return out, rs.PartialCounts(ctx, epoch, j, r, limit, out)
}

// TestTracePropagation: a query run under a client trace reaches the
// server carrying the same 16-byte ID — the server's retained span tree is
// found under the client's ID, holds a span per request type issued, and
// the structured log announces the ID once per connection.
func TestTracePropagation(t *testing.T) {
	var logBuf bytes.Buffer
	rs, srv := dialTestShard(t, ServerOptions{
		Log: obs.NewLogger(&logBuf, 0, 0),
	})

	tr := obs.NewTrace()
	ctx := obs.ContextWith(context.Background(), tr)
	if _, err := remotePartials(ctx, rs, geometry.EpochFrozen, 0, 0.01, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.DupCounts(ctx, geometry.EpochFrozen); err != nil {
		t.Fatal(err)
	}

	st := srv.Trace(tr.ID())
	if st == nil {
		t.Fatalf("server retained no trace under the client ID %s", tr.ID())
	}
	if st.ID() != tr.ID() {
		t.Fatalf("server trace ID = %s, want the client's %s", st.ID(), tr.ID())
	}
	names := make(map[string]bool)
	for _, s := range st.Spans() {
		names[s.Name] = true
	}
	if !names["rpc/partials"] || !names["rpc/dupcounts"] {
		t.Fatalf("server spans = %v, want rpc/partials and rpc/dupcounts", names)
	}

	logged := logBuf.String()
	if !strings.Contains(logged, tr.ID().String()) {
		t.Fatalf("server log does not mention the trace ID %s:\n%s", tr.ID(), logged)
	}
	if n := strings.Count(logged, tr.ID().String()); n != 1 {
		t.Fatalf("trace announced %d times on one connection, want once:\n%s", n, logged)
	}

	// An untraced call on the same session must not attach to the trace.
	before := len(st.Spans())
	if _, err := rs.DupCounts(context.Background(), geometry.EpochFrozen); err != nil {
		t.Fatal(err)
	}
	if after := len(st.Spans()); after != before {
		t.Fatalf("untraced request grew the trace: %d -> %d spans", before, after)
	}
}

// TestV3HelloRefused: a client offering protocol version 3, whose COUNTS
// frames carry one slot per global row, is refused at HELLO with a typed
// version error rather than handed a session it would misread.
func TestV3HelloRefused(t *testing.T) {
	helloVersion = 3
	defer func() { helloVersion = ProtocolVersion }()
	pts := testPoints(t, 77, 80, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()
	_, err = DialShard(context.Background(), "srv", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: []int32{0, 1}, Cell: testCellOptions(2),
	}, Options{Dial: ln.Dial})
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindVersion || !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("v3 HELLO: err = %v, want a KindVersion error", err)
	}
}
