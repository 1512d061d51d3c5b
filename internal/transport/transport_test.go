package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// frameOf packs test vectors into a flat frame, failing the test on ragged
// input.
func frameOf(t *testing.T, pts []vec.Vector) *vec.Frame {
	t.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// testPoints builds the planted-cluster-plus-duplicates workload the
// geometry equivalence tests use: dense cluster, exact duplicate block,
// uniform background, all grid-quantized.
func testPoints(t *testing.T, seed int64, n, d int) []vec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid, err := geometry.NewGrid(1<<12, d)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]vec.Vector, 0, n)
	center := make(vec.Vector, d)
	for a := range center {
		center[a] = 0.3 + 0.4*rng.Float64()
	}
	for i := 0; i < n/2; i++ {
		p := make(vec.Vector, d)
		for a := range p {
			p[a] = center[a] + 0.02*(rng.Float64()*2-1)
		}
		pts = append(pts, grid.Quantize(p))
	}
	dup := grid.Quantize(center.Clone())
	for i := 0; i < n/10; i++ {
		pts = append(pts, dup)
	}
	for len(pts) < n {
		p := make(vec.Vector, d)
		for a := range p {
			p[a] = rng.Float64()
		}
		pts = append(pts, grid.Quantize(p))
	}
	return pts
}

func testCellOptions(d int) geometry.CellIndexOptions {
	grid, _ := geometry.NewGrid(1<<12, d)
	return geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()}
}

// startServers brings up `count` shard servers on a fresh loopback net and
// returns their addresses plus the client options dialing through it.
// Cleanup shuts every server down.
func startServers(t *testing.T, count int, sopts ServerOptions) ([]string, Options) {
	t.Helper()
	ln := NewLoopbackNet()
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = "shard-" + strings.Repeat("i", i+1)
		l, err := ln.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(sopts)
		go srv.Serve(l)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return addrs, Options{Dial: ln.Dial}
}

// remoteIndex builds a backend-mode ShardedIndex whose shards are served
// over the loopback wire protocol, one backend dialed per shard.
func remoteIndex(t *testing.T, pts []vec.Vector, shards int, addrs []string, copts Options) *geometry.ShardedIndex {
	t.Helper()
	d := pts[0].Dim()
	dial := ReplicatedShardDialer(partition(addrs, len(addrs), 1), ReplicaOptions{Options: copts})
	var dialed atomic.Int32
	ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts), geometry.ShardedIndexOptions{
		Shards: shards, Cell: testCellOptions(d),
	}, func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.ShardBackend, error) {
		dialed.Add(1)
		return dial(ctx, shard, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(dialed.Load()); got != min(shards, len(pts)) {
		t.Fatalf("dialed %d backends for %d shards", got, shards)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// cellIndexOf builds the reference CellIndex over test vectors.
func cellIndexOf(t *testing.T, pts []vec.Vector, opts geometry.CellIndexOptions) *geometry.CellIndex {
	t.Helper()
	ix, err := geometry.NewCellIndexFrame(frameOf(t, pts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func assertStepEqual(t *testing.T, tag string, got, want *geometry.LStep) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: LStep = %+v, want %+v", tag, *got, *want)
	}
}

// assertSameSteps builds the L̂ step function of both indexes at every
// given t and requires bit equality of Breaks and Vals — the whole query
// surface the mechanism reads through geometry.BallIndex.
func assertSameSteps(t *testing.T, tag string, got, want geometry.BallIndex, ts ...int) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N = %d, want %d", tag, got.N(), want.N())
	}
	for _, tt := range ts {
		gs, err1 := got.BuildLStep(context.Background(), tt)
		ws, err2 := want.BuildLStep(context.Background(), tt)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: BuildLStep(%d): %v / %v", tag, tt, err1, err2)
		}
		assertStepEqual(t, fmt.Sprintf("%s t=%d", tag, tt), gs, ws)
	}
}

// TestRemoteShardedIndexMatchesCellIndex is the transport equivalence
// guarantee: a ShardedIndex whose shards live behind the wire protocol
// builds the L̂ step function bit-identically to a CellIndex over the same
// points — the protocol moves the ShardBackend calls faithfully, so the
// geometry-layer equivalence survives serialization.
func TestRemoteShardedIndexMatchesCellIndex(t *testing.T) {
	for _, d := range []int{1, 2} {
		pts := testPoints(t, int64(d), 600, d)
		ref := cellIndexOf(t, pts, testCellOptions(d))
		for _, s := range []int{2, 4} {
			addrs, copts := startServers(t, s, ServerOptions{})
			sh := remoteIndex(t, pts, s, addrs, copts)
			if sh.Frame().N() != ref.Frame().N() {
				t.Fatalf("d=%d s=%d: Frame diverged", d, s)
			}
			assertSameSteps(t, fmt.Sprintf("d=%d s=%d", d, s), sh, ref, 1, 2, len(pts)/3, len(pts))
		}
	}
}

// scriptedShard serves one connection with a correct handshake and then
// `reqs` zero-count responses, after which it slams the connection and the
// listener — a deterministic stand-in for a shard server dying mid-use.
func scriptedShard(t *testing.T, l net.Listener, reqs int) {
	cannedShard(t, l, func(i, m int) []byte {
		if i >= reqs {
			return nil
		}
		return countsPayload(make([]int32, m))
	})
}

// cannedShard serves one connection with a correct handshake and then
// answers request i with a COUNTS frame carrying answer(i, m), m the
// session's owned-row count, whatever the request asked; once answer
// returns nil it slams the connection and the listener.
func cannedShard(t *testing.T, l net.Listener, answer func(i, m int) []byte) {
	t.Helper()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		defer l.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		// HELLO.
		if typ, _, err := readFrame(br, nil); err != nil || typ != msgHello {
			return
		}
		w := &wbuf{}
		w.u16(ProtocolVersion)
		if err := writeFrame(bw, msgHelloOK, w.b); err != nil {
			return
		}
		// OPEN: parse just enough to echo the right counts.
		typ, payload, err := readFrame(br, nil)
		if err != nil || typ != msgOpen {
			return
		}
		r := &rbuf{b: payload}
		r.f64()
		r.f64()
		r.u32()
		r.u32()
		r.u8() // mutable flag
		hasPoints := r.u8() == 1
		n := int(r.u32())
		dim := int(r.u16())
		if hasPoints {
			r.take(8 * n * dim)
		}
		m := int(r.u32())
		w = &wbuf{}
		w.u32(uint32(m))
		w.u32(uint32(n))
		if err := writeFrame(bw, msgOpenOK, w.b); err != nil {
			return
		}
		for i := 0; ; i++ {
			resp := answer(i, m)
			if resp == nil {
				return
			}
			if _, _, err := readFrame(br, nil); err != nil {
				return
			}
			if err := writeFrame(bw, msgCounts, resp); err != nil {
				return
			}
		}
	}()
}

// TestServerDeathMidSweep: one shard's server dies partway through the
// LStep sweep. BuildLStep must return a typed transport error — no hang,
// and never a partially summed step function.
func TestServerDeathMidSweep(t *testing.T) {
	pts := testPoints(t, 5, 300, 2)
	ln := NewLoopbackNet()

	// Shard 0: a real server for the whole test.
	l0, err := ln.Listen("alive")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l0)
	defer srv.Close()

	// Shard 1: handshake + DupCounts + one PARTIALS, then gone.
	l1, err := ln.Listen("doomed")
	if err != nil {
		t.Fatal(err)
	}
	scriptedShard(t, l1, 2)

	ix, err := geometry.NewShardedIndexBackends(context.Background(), frameOf(t, pts), geometry.ShardedIndexOptions{
		Shards: 2, Cell: testCellOptions(2),
	}, ReplicatedShardDialer([][]string{{"alive"}, {"doomed"}}, ReplicaOptions{Options: Options{Dial: ln.Dial}}))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	done := make(chan error, 1)
	go func() {
		_, err := ix.BuildLStep(context.Background(), len(pts)/3)
		done <- err
	}()
	select {
	case err := <-done:
		var te *Error
		if !errors.As(err, &te) {
			t.Fatalf("BuildLStep after server death: err = %v, want *transport.Error", err)
		}
		if te.Kind != KindDial && te.Kind != KindIO {
			t.Fatalf("err kind = %v, want dial or io", te.Kind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("BuildLStep hung after server death")
	}
}

// TestRetryReconnects: a connection broken between calls is transparently
// re-dialed and re-handshaken within the retry budget.
func TestRetryReconnects(t *testing.T) {
	pts := testPoints(t, 6, 200, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("flaky")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()

	cell := testCellOptions(2) // a single shard needs no ladder pinning
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	var dials atomic.Int32
	countingDial := func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		return ln.Dial(ctx, addr)
	}
	rs, err := DialShard(context.Background(), "flaky", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: cell,
	}, Options{Dial: countingDial})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	want, err := rs.DupCounts(context.Background(), geometry.EpochFrozen)
	if err != nil {
		t.Fatal(err)
	}

	// Sever the live connection behind the client's back; the next call
	// must fail over to a fresh dial + handshake and still answer.
	rs.mu.Lock()
	rs.conn.Close()
	rs.mu.Unlock()
	got, err := rs.DupCounts(context.Background(), geometry.EpochFrozen)
	if err != nil {
		t.Fatalf("call after severed conn: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dup[%d] = %d after reconnect, want %d", i, got[i], want[i])
		}
	}
	if dials.Load() != 2 {
		t.Errorf("dialed %d times, want 2", dials.Load())
	}
}

// TestCancellationTearsDownInFlight: cancelling the context of an
// in-flight remote call forces the blocking I/O to fail immediately —
// wrapped so errors.Is sees context.Canceled — and leaks no goroutines.
func TestCancellationTearsDownInFlight(t *testing.T) {
	pts := testPoints(t, 7, 200, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("tarpit")
	if err != nil {
		t.Fatal(err)
	}
	// A server that answers the handshake and then never responds.
	release := make(chan struct{})
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		if typ, _, err := readFrame(br, nil); err != nil || typ != msgHello {
			return
		}
		w := &wbuf{}
		w.u16(ProtocolVersion)
		writeFrame(bw, msgHelloOK, w.b)
		typ, payload, err := readFrame(br, nil)
		if err != nil || typ != msgOpen {
			return
		}
		r := &rbuf{b: payload}
		r.f64()
		r.f64()
		r.u32()
		r.u32()
		r.u8() // mutable flag
		hasPoints := r.u8() == 1
		n := int(r.u32())
		dim := int(r.u16())
		if hasPoints {
			r.take(8 * n * dim)
		}
		m := int(r.u32())
		w = &wbuf{}
		w.u32(uint32(m))
		w.u32(uint32(n))
		writeFrame(bw, msgOpenOK, w.b)
		readFrame(br, nil) // the doomed request…
		<-release          // …that never gets an answer
	}()
	defer close(release)

	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	before := runtime.NumGoroutine()
	rs, err := DialShard(context.Background(), "tarpit", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: testCellOptions(2),
	}, Options{Dial: ln.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rs.DupCounts(ctx, geometry.EpochFrozen)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call: err = %v, want context.Canceled in the chain", err)
	}
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindCanceled {
		t.Fatalf("cancelled call: err = %v, want KindCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The client must not have left the call's plumbing running.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines: %d before, %d after cancellation", before, g)
	}
}

// TestVersionMismatch: a server that speaks a different protocol version
// refuses the handshake with a typed, non-retried error.
func TestVersionMismatch(t *testing.T) {
	pts := testPoints(t, 8, 50, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("old")
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				if typ, _, err := readFrame(br, nil); err != nil || typ != msgHello {
					return
				}
				e := &wireError{code: codeVersion, msg: "server speaks protocol version 99"}
				writeFrame(bw, msgError, encodeError(e))
			}(conn)
		}
	}()
	defer l.Close()

	members := []int32{0, 1}
	_, err = DialShard(context.Background(), "old", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: testCellOptions(2),
	}, Options{Dial: func(ctx context.Context, addr string) (net.Conn, error) {
		dials.Add(1)
		return ln.Dial(ctx, addr)
	}})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindVersion {
		t.Fatalf("err = %v, want KindVersion", err)
	}
	if dials.Load() != 1 {
		t.Errorf("version mismatch was retried: %d dials", dials.Load())
	}

	// Server side of the same contract: a client hello below the version
	// floor gets the version error frame back, while a future version is
	// negotiated down to the server's highest.
	srvL, err := ln.Listen("current")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(srvL)
	defer srv.Close()
	conn, err := ln.Dial(context.Background(), "current")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	w := &wbuf{}
	w.b = append(w.b, wireMagic[:]...)
	w.u16(minProtocolVersion - 1)
	if err := writeFrame(bw, msgHello, w.b); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError {
		t.Fatalf("server answered type %d to a pre-floor version, want error frame", typ)
	}
	r := &rbuf{b: payload}
	if code := r.u16(); code != codeVersion {
		t.Fatalf("error code = %d, want %d", code, codeVersion)
	}

	conn2, err := ln.Dial(context.Background(), "current")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	bw2 := bufio.NewWriter(conn2)
	w = &wbuf{}
	w.b = append(w.b, wireMagic[:]...)
	w.u16(ProtocolVersion + 7)
	if err := writeFrame(bw2, msgHello, w.b); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = readFrame(bufio.NewReader(conn2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgHelloOK {
		t.Fatalf("server answered type %d to a future version, want hello-ok", typ)
	}
	r = &rbuf{b: payload}
	if v := r.u16(); v != ProtocolVersion {
		t.Fatalf("server negotiated version %d with a future client, want %d", v, ProtocolVersion)
	}
}

// TestGracefulShutdown: Shutdown with idle connections returns promptly
// and later calls on the client fail over to a dial error.
func TestGracefulShutdown(t *testing.T) {
	pts := testPoints(t, 9, 100, 2)
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	rs, err := DialShard(context.Background(), "srv", geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: testCellOptions(2),
	}, Options{Dial: ln.Dial, Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.DupCounts(context.Background(), geometry.EpochFrozen); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown of an idle server: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve returned %v, want ErrClosed", err)
	}
	if _, err := rs.DupCounts(context.Background(), geometry.EpochFrozen); err == nil {
		t.Fatal("call succeeded against a shut-down server")
	}
}

// TestHostileOpenFrame: OPEN frames that would crash the server are
// answered with an error frame, and the server keeps serving. A header
// claiming far more points than the payload carries must not drive a
// header-sized allocation (the regression the rbuf.vectors payload bound
// guards), and cell options over valid points must not derive a
// non-finite or absurdly deep radius ladder.
func TestHostileOpenFrame(t *testing.T) {
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()

	// OPEN claiming 4 billion points of dimension 65535 in a 30-byte
	// payload.
	w := &wbuf{}
	w.f64(0.001)
	w.f64(1.5)
	w.u32(2)
	w.u32(4)
	w.u8(0)           // mutable
	w.u8(1)           // hasPoints
	w.u32(0xFFFFFFF0) // n
	w.u16(0xFFFF)     // dim
	w.u32(0xFFFFFFF0) // members — never reached
	if typ := sendOpen(t, ln, w.b); typ != msgError {
		t.Fatalf("inflated OPEN answered with type %d, want error frame", typ)
	}

	pts := openTestPoints()
	for _, tc := range []struct {
		name            string
		minR, maxR      float64
		levelsPerOctave uint32
	}{
		{"levels-per-octave", 0.001, 1.5, 0xFFFFFFFF}, // out of memory at any n
		{"subnormal-min-radius", 5e-324, 1.5, 2},      // stopR/minR overflows to +Inf
		{"nan-min-radius", math.NaN(), 1.5, 2},        // a silent one-level ladder
	} {
		for _, mutable := range []bool{false, true} {
			payload := openPayload(tc.minR, tc.maxR, tc.levelsPerOctave, mutable, pts, nil)
			if typ := sendOpen(t, ln, payload); typ != msgError {
				t.Errorf("%s (mutable %v): answered with type %d, want error frame", tc.name, mutable, typ)
			}
		}
	}

	// The owned ids must ascend strictly: a descending or repeated list is
	// refused, an ascending subset accepted.
	cell := testCellOptions(2)
	for _, tc := range []struct {
		name  string
		owned []int32
		want  byte
	}{
		{"descending", []int32{3, 1}, msgError},
		{"repeated", []int32{1, 1}, msgError},
		{"subset", []int32{1, 3}, msgOpenOK},
	} {
		for _, mutable := range []bool{false, true} {
			if typ := sendOpen(t, ln, openPayload(cell.MinRadius, cell.MaxRadius, 2, mutable, pts, tc.owned)); typ != tc.want {
				t.Errorf("%s owned ids (mutable %v): answered with type %d, want %d", tc.name, mutable, typ, tc.want)
			}
		}
	}

	// A session opens once: a second OPEN is refused.
	s2 := dialRaw(t, ln)
	if rt := s2.send(t, msgOpen, validOpen(true)); rt != msgOpenOK {
		t.Fatalf("first OPEN answered with type %d", rt)
	}
	if rt := s2.send(t, msgOpen, validOpen(false)); rt != msgError {
		t.Errorf("second OPEN answered with type %d, want error frame", rt)
	}
	s2.conn.Close()

	// The retired preloaded-points handshake sent points byte 0 and a
	// checksum in place of the point set: a bad request. A client whose
	// OPEN carries that byte sees a remote error.
	s := dialRaw(t, ln)
	if err := writeFrame(s.bw, msgOpen, omitPointsOpen()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(s.br, nil)
	s.conn.Close()
	if err != nil || typ != msgError {
		t.Fatalf("omit-points OPEN answered with type %d (%v), want error frame", typ, err)
	}
	if code := (&rbuf{b: payload}).u16(); code != codeBadRequest {
		t.Errorf("omit-points OPEN answered with code %d, want %d (bad request)", code, codeBadRequest)
	}
	members := make([]int32, pts.N())
	for i := range members {
		members[i] = int32(i)
	}
	_, err = DialShard(context.Background(), "srv", geometry.ShardConfig{
		Points: pts, Owned: members, Cell: testCellOptions(2),
	}, Options{Retries: -1, Dial: func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := ln.Dial(ctx, addr)
		return omitPointsConn{c}, err
	}})
	var te *Error
	if !errors.As(err, &te) || te.Kind != KindRemote {
		t.Fatalf("omit-points client: err = %v, want a *Error of kind remote", err)
	}

	// A NaN coordinate in the point set: both sessions refuse it, since a
	// NaN would reach the shard's counts.
	nan := openTestPoints()
	nan.SetRow(3, vec.Vector{math.NaN(), 0.5})
	for _, mutable := range []bool{false, true} {
		payload := openPayload(cell.MinRadius, cell.MaxRadius, 2, mutable, nan, nil)
		if typ := sendOpen(t, ln, payload); typ != msgError {
			t.Errorf("NaN point (mutable %v): answered with type %d, want error frame", mutable, typ)
		}
	}

	// The server must still be alive and serving after the bad frames.
	if err := checkServing(ln); err != nil {
		t.Fatalf("server unusable after hostile frames: %v", err)
	}
}

// TestHostileSessionFrames: after a valid OPEN, an APPEND carrying a NaN
// coordinate is answered with an ERROR, and so is a raw frame of the
// retired type 12 (EPOCH_GET), as an unknown type, on either session.
func TestHostileSessionFrames(t *testing.T) {
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()

	s := dialRaw(t, ln)
	if rt := s.send(t, msgOpen, validOpen(true)); rt != msgOpenOK {
		t.Fatalf("mutable OPEN answered with type %d", rt)
	}
	row := vec.NewFrame(1, 2)
	row.SetRow(0, vec.Vector{math.NaN(), 0.5})
	w := &wbuf{}
	w.u8(0) // no trace
	w.u32(1)
	w.u16(2)
	w.frame(row)
	w.b = binary.BigEndian.AppendUint64(w.b, uint64(openTestPoints().N())) // the next stable id
	w.u32(1)
	w.i32(0)
	if rt := s.send(t, msgAppend, w.b); rt != msgError {
		t.Errorf("APPEND of a NaN row answered with type %d, want an error frame", rt)
	}
	s.conn.Close()

	for _, mutable := range []bool{false, true} {
		s := dialRaw(t, ln)
		if rt := s.send(t, msgOpen, validOpen(mutable)); rt != msgOpenOK {
			t.Fatalf("OPEN (mutable %v) answered with type %d", mutable, rt)
		}
		if err := writeFrame(s.bw, 12, []byte{0}); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(s.br, nil)
		s.conn.Close()
		if err != nil || typ != msgError {
			t.Fatalf("type-12 frame (mutable %v) answered with type %d (%v), want error frame", mutable, typ, err)
		}
		r := &rbuf{b: payload}
		if code, msg := r.u16(), r.str(); code != codeBadRequest || !strings.Contains(msg, "unknown message type 12") {
			t.Errorf("type-12 frame (mutable %v) answered with code %d %q, want an unknown-type bad request", mutable, code, msg)
		}
	}

	if err := checkServing(ln); err != nil {
		t.Fatalf("server unusable after hostile frames: %v", err)
	}
}

// omitPointsOpen is the OPEN of a retired preloaded-points client over
// openTestPoints: points byte 0 and a checksum in place of the point set.
func omitPointsOpen() []byte {
	pts := openTestPoints()
	cell := testCellOptions(2)
	w := &wbuf{}
	w.f64(cell.MinRadius)
	w.f64(cell.MaxRadius)
	w.u32(2)
	w.u32(0)
	w.u8(0) // mutable
	w.u8(0) // points byte: omitted
	w.u32(uint32(pts.N()))
	w.u16(uint16(pts.Dim()))
	w.b = binary.BigEndian.AppendUint64(w.b, 0x0123456789abcdef) // checksum
	w.u32(uint32(pts.N()))
	for i := 0; i < pts.N(); i++ {
		w.u32(uint32(i))
	}
	return w.b
}

// omitPointsConn clears the points byte of the OPEN frame a client writes.
// The client flushes each frame on its own, so a frame starts each write.
type omitPointsConn struct{ net.Conn }

func (c omitPointsConn) Write(p []byte) (int, error) {
	const pointsByte = 5 + 25 // frame header, then cell options and the mutable byte
	if len(p) > pointsByte && p[4] == msgOpen {
		p = append([]byte(nil), p...)
		p[pointsByte] = 0
	}
	return c.Conn.Write(p)
}

// FuzzOpenFrame feeds arbitrary OPEN payloads, after a valid HELLO, to one
// shard server: every payload must be answered with OPEN-OK or an error
// frame, never crash the server, and leave it serving a valid DialShard.
func FuzzOpenFrame(f *testing.F) {
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()
	f.Fuzz(func(t *testing.T, payload []byte) {
		if typ := sendOpen(t, ln, payload); typ != msgOpenOK && typ != msgError {
			t.Fatalf("OPEN answered with type %d", typ)
		}
		if err := checkServing(ln); err != nil {
			t.Fatalf("server unusable after OPEN %x: %v", payload, err)
		}
	})
}

// openTestPoints is a small valid point set for OPEN frames: 40 grid points
// in the unit square.
func openTestPoints() *vec.Frame {
	f := vec.NewFrame(40, 2)
	for i := 0; i < 40; i++ {
		f.SetRow(i, vec.Vector{float64(i%8) / 8, float64(i/8) / 8})
	}
	return f
}

// openPayload encodes an OPEN body as the client does: the given ladder
// options (default CellsPerRadius), pts inline, and the owned ids (nil:
// every row).
func openPayload(minR, maxR float64, levelsPerOctave uint32, mutable bool, pts *vec.Frame, owned []int32) []byte {
	w := &wbuf{}
	w.f64(minR)
	w.f64(maxR)
	w.u32(levelsPerOctave)
	w.u32(0) // CellsPerRadius: default
	if mutable {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u8(1) // hasPoints
	w.u32(uint32(pts.N()))
	w.u16(uint16(pts.Dim()))
	w.frame(pts)
	if owned == nil {
		owned = make([]int32, pts.N())
		for i := range owned {
			owned[i] = int32(i)
		}
	}
	w.u32(uint32(len(owned)))
	for _, g := range owned {
		w.i32(g)
	}
	return w.b
}

// rawSession is a raw client connection to the server at "srv" that has
// completed HELLO: tests drive it frame by frame.
type rawSession struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
}

func dialRaw(tb testing.TB, ln *LoopbackNet) *rawSession {
	tb.Helper()
	conn, err := ln.Dial(context.Background(), "srv")
	if err != nil {
		tb.Fatal(err)
	}
	s := &rawSession{conn: conn, bw: bufio.NewWriter(conn), br: bufio.NewReader(conn)}
	hello := &wbuf{}
	hello.b = append(hello.b, wireMagic[:]...)
	hello.u16(ProtocolVersion)
	if typ := s.send(tb, msgHello, hello.b); typ != msgHelloOK {
		tb.Fatalf("hello answered with type %d", typ)
	}
	return s
}

// send writes one frame and returns the type of the server's reply.
func (s *rawSession) send(tb testing.TB, typ byte, payload []byte) byte {
	tb.Helper()
	if err := writeFrame(s.bw, typ, payload); err != nil {
		tb.Fatal(err)
	}
	rtyp, _, err := readFrame(s.br, nil)
	if err != nil {
		tb.Fatalf("no reply to a type-%d frame: %v", typ, err)
	}
	return rtyp
}

// sendOpen opens a fresh connection to the server at "srv", completes
// HELLO and sends one OPEN with the given payload, returning the reply's
// message type.
func sendOpen(tb testing.TB, ln *LoopbackNet, payload []byte) byte {
	tb.Helper()
	s := dialRaw(tb, ln)
	defer s.conn.Close()
	return s.send(tb, msgOpen, payload)
}

// validOpen is a well-formed OPEN payload over openTestPoints, owning
// every row.
func validOpen(mutable bool) []byte {
	cell := testCellOptions(2)
	return openPayload(cell.MinRadius, cell.MaxRadius, 2, mutable, openTestPoints(), nil)
}

// evenRowsOpen is a well-formed OPEN payload over openTestPoints owning
// its even rows: the session's owned-row count is half the global one.
func evenRowsOpen(mutable bool) []byte {
	cell := testCellOptions(2)
	var owned []int32
	for i := int32(0); i < 40; i += 2 {
		owned = append(owned, i)
	}
	return openPayload(cell.MinRadius, cell.MaxRadius, 2, mutable, openTestPoints(), owned)
}

// FuzzSessionFrame feeds one arbitrary post-OPEN frame to a shard server:
// after HELLO and a valid OPEN (immutable or mutable, as mode's low bit
// picks), the (typ, payload) frame must be answered with a defined
// response type or an error frame, never crash the server, and leave it
// serving a valid DialShard. Mode's second bit opens a session owning
// every other row instead of every row. Payloads travel raw, so the trace
// field is the fuzzer's first payload byte.
func FuzzSessionFrame(f *testing.F) {
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()
	f.Fuzz(func(t *testing.T, mode, typ byte, payload []byte) {
		s := dialRaw(t, ln)
		defer s.conn.Close()
		open := validOpen
		if mode&2 != 0 {
			open = evenRowsOpen
		}
		if rt := s.send(t, msgOpen, open(mode&1 == 1)); rt != msgOpenOK {
			t.Fatalf("valid OPEN answered with type %d", rt)
		}
		switch rt := s.send(t, typ, payload); rt {
		case msgHelloOK, msgOpenOK, msgCounts, msgEpoch, msgError:
		default:
			t.Fatalf("type-%d frame answered with type %d", typ, rt)
		}
		if err := checkServing(ln); err != nil {
			t.Fatalf("server unusable after type-%d frame %x: %v", typ, payload, err)
		}
	})
}

// TestAppendInflatedCount: an APPEND whose row count (2²⁷) claims far
// more rows than its 7-byte payload carries is refused as malformed before
// anything is sized by the claim.
func TestAppendInflatedCount(t *testing.T) {
	ln := NewLoopbackNet()
	l, err := ln.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{})
	go srv.Serve(l)
	defer srv.Close()
	s := dialRaw(t, ln)
	defer s.conn.Close()
	if rt := s.send(t, msgOpen, validOpen(true)); rt != msgOpenOK {
		t.Fatalf("mutable OPEN answered with type %d", rt)
	}
	w := &wbuf{}
	w.u8(0) // no trace
	w.u32(1 << 27)
	w.u16(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := s.send(t, msgAppend, w.b)
	runtime.ReadMemStats(&after)
	if rt != msgError {
		t.Fatalf("inflated APPEND answered with type %d, want an error frame", rt)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("inflated APPEND allocated %d MiB before failing", grew>>20)
	}
}

// checkServing dials a valid shard session on the server at "srv" and
// closes it.
func checkServing(ln *LoopbackNet) error {
	pts := openTestPoints()
	members := make([]int32, pts.N())
	for i := range members {
		members[i] = int32(i)
	}
	rs, err := DialShard(context.Background(), "srv", geometry.ShardConfig{
		Points: pts, Owned: members, Cell: testCellOptions(2),
	}, Options{Dial: ln.Dial})
	if err != nil {
		return err
	}
	return rs.Close()
}

// TestWireFraming covers the frame grammar edges: oversized payloads are
// refused before allocation, truncated payloads surface as decode errors.
func TestWireFraming(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		var hdr [5]byte
		hdr[0] = 0xFF // declares a ~4 GiB payload
		c1.Write(hdr[:])
	}()
	if _, _, err := readFrame(bufio.NewReader(c2), nil); err == nil {
		t.Error("oversized frame accepted")
	}

	r := &rbuf{b: []byte{0, 0}}
	r.u32()
	if r.err == nil {
		t.Error("truncated u32 read succeeded")
	}
	if got := r.u32(); got != 0 || r.err == nil {
		t.Error("sticky decode error did not stick")
	}

	got := make([]int32, 3)
	if err := decodeCounts(countsPayload([]int32{1, 2, 3}), got); err != nil || !slices.Equal(got, []int32{1, 2, 3}) {
		t.Errorf("counts round trip: %v, %v", got, err)
	}
	if err := decodeCounts(countsPayload([]int32{1, 2, 3}), make([]int32, 4)); err == nil {
		t.Error("short counts response accepted")
	}
}

// TestPartialsStrictness: the PARTIALS boundary-rule byte admits only 0
// (the center rule), and message type 7 (the retired COUNT_BATCH) is
// refused even when well formed under its old grammar. Each case sends a
// raw frame on a fresh session and must draw a bad-request ERROR frame,
// which the client surfaces as a typed *Error of kind remote.
func TestPartialsStrictness(t *testing.T) {
	ctx := context.Background()
	pts := testPoints(t, 51, 60, 2)
	addrs, copts := startServers(t, 1, ServerOptions{})
	members := make([]int32, len(pts))
	for i := range members {
		members[i] = int32(i)
	}
	rs, err := DialShard(ctx, addrs[0], geometry.ShardConfig{
		Points: frameOf(t, pts), Owned: members, Cell: testCellOptions(2),
	}, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	partials := func(boundary byte) []byte {
		w := &wbuf{}
		w.b = binary.BigEndian.AppendUint64(w.b, geometry.EpochFrozen)
		w.i32(0)
		w.f64(0.01)
		w.i32(5)
		w.u8(boundary)
		return w.b
	}
	retired := &wbuf{} // the retired type-7 grammar: epoch, radius, k, k centers
	retired.b = binary.BigEndian.AppendUint64(retired.b, geometry.EpochFrozen)
	retired.f64(0.01)
	retired.u32(1)
	retired.f64(0.5)
	retired.f64(0.5)

	// raw sends one request frame on a fresh session and returns the
	// response frame.
	raw := func(typ byte, body []byte) (byte, []byte) {
		t.Helper()
		rs.mu.Lock()
		defer rs.mu.Unlock()
		rs.resetConnLocked()
		if err := rs.ensureConnLocked(ctx); err != nil {
			t.Fatal(err)
		}
		body = append([]byte{0}, body...) // untraced
		if err := writeFrame(rs.bw, typ, body); err != nil {
			t.Fatal(err)
		}
		rt, payload, err := readFrame(rs.br, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rt, payload
	}

	if typ, _ := raw(msgPartials, partials(0)); typ != msgCounts {
		t.Fatalf("center-rule partials answered with type %d, want counts", typ)
	}
	for _, tc := range []struct {
		name string
		typ  byte
		body []byte
	}{
		{"boundary 1", msgPartials, partials(1)},
		{"boundary 2", msgPartials, partials(2)},
		{"boundary 255", msgPartials, partials(255)},
		{"retired type 7", 7, retired.b},
	} {
		typ, payload := raw(tc.typ, tc.body)
		if typ != msgError {
			t.Fatalf("%s: answered with type %d, want an error frame", tc.name, typ)
		}
		if code := (&rbuf{b: payload}).u16(); code != codeBadRequest {
			t.Fatalf("%s: error code %d, want bad request (%d)", tc.name, code, codeBadRequest)
		}
		rs.mu.Lock()
		rs.resetConnLocked()
		rs.mu.Unlock()
		err := rs.call(ctx, "raw", tc.typ, tc.body, msgCounts, func([]byte) error { return nil })
		var te *Error
		if !errors.As(err, &te) || te.Kind != KindRemote {
			t.Fatalf("%s: err = %v, want a *transport.Error of kind remote", tc.name, err)
		}
	}
	// The client's own frames stay valid after every refusal.
	if _, err := remotePartials(ctx, rs, geometry.EpochFrozen, 0, 0.01, 5); err != nil {
		t.Fatalf("PartialCounts after refusals: %v", err)
	}
}

// TestLoopbackNet covers the loopback namespace semantics.
func TestLoopbackNet(t *testing.T) {
	ln := NewLoopbackNet()
	if _, err := ln.Dial(context.Background(), "nobody"); err == nil {
		t.Error("dial to unknown loopback address succeeded")
	}
	l, err := ln.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Listen("a"); err == nil {
		t.Error("double listen succeeded")
	}
	l.Close()
	if _, err := ln.Dial(context.Background(), "a"); err == nil {
		t.Error("dial to closed loopback listener succeeded")
	}
	if _, err := ln.Listen("a"); err != nil {
		t.Errorf("re-listen after close: %v", err)
	}
}
