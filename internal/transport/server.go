package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"privcluster/internal/geometry"
	"privcluster/internal/obs"
)

// ServerOptions configures a shard server.
type ServerOptions struct {
	// Workers bounds the worker pools of the hosted shards' count passes
	// (0 = GOMAXPROCS). Worker count never affects results — only how
	// fast this server produces them.
	Workers int
	// Logf, when set, receives connection-level diagnostics. The server
	// is silent without it.
	Logf func(format string, args ...any)
	// Log, when set, receives structured trace-correlation lines: one per
	// new client trace ID seen on a connection (version-3 sessions), so an
	// operator can grep a shard server's output for the trace ID a client
	// printed. Lines carry IDs, addresses and counts — never data.
	Log *obs.Logger
}

// Server hosts shards behind the wire protocol. Each connection carries
// one shard session: the OPEN handshake builds a geometry.LocalShard (or,
// for mutable sessions, a geometry.MutableLocalShard) for the requested
// member set, and subsequent requests are answered from it. One server
// process therefore hosts as many shards as clients open against it — a
// ShardedIndex with S remote shards may point all S backends at one
// address or spread them over a fleet.
//
// Shutdown is graceful: the listeners close first (no new sessions), idle
// connections are torn down, in-flight requests run to completion until
// the shutdown context expires, then everything remaining is cut.
type Server struct {
	opts ServerOptions

	ctx  context.Context // server lifetime: cancelled by Close/forced Shutdown
	stop context.CancelFunc

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	wg        sync.WaitGroup
	shutdown  bool

	// traces retains the server-side span trees of recently traced sessions
	// (keyed by the client's propagated trace ID) for diagnostics.
	traces *obs.TraceRing
}

// NewServer returns a server ready to Serve listeners.
func NewServer(opts ServerOptions) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:      opts,
		ctx:       ctx,
		stop:      cancel,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*serverConn]struct{}),
		traces:    obs.NewTraceRing(64),
	}
}

// Trace returns the retained server-side trace for a propagated client
// trace ID, or nil when it has aged out of the ring (or never arrived).
func (s *Server) Trace(id obs.TraceID) *obs.Trace { return s.traces.Get(id) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until the listener fails or the server
// shuts down; it always returns a non-nil error (ErrClosed after
// Shutdown/Close). Serve may be called on several listeners concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			down := s.shutdown
			s.mu.Unlock()
			if down {
				return ErrClosed
			}
			return err
		}
		sc := &serverConn{srv: s, conn: conn}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return ErrClosed
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sc.serve()
	}
}

// Shutdown stops the server gracefully: close listeners, drop idle
// connections, let in-flight requests finish. When ctx expires first, the
// remaining connections are force-closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	for l := range s.listeners {
		l.Close()
	}
	for sc := range s.conns {
		if !sc.busy.Load() {
			sc.conn.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.stop() // cancel in-flight shard computations
		s.mu.Lock()
		for sc := range s.conns {
			sc.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close shuts the server down immediately: listeners and connections
// close, in-flight computations are cancelled.
func (s *Server) Close() error {
	s.mu.Lock()
	s.shutdown = true
	s.stop()
	for l := range s.listeners {
		l.Close()
	}
	for sc := range s.conns {
		sc.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// serverConn is one connection: handshake state plus the shard session it
// opened — exactly one of shard (immutable) or mshard (mutable) after a
// successful OPEN. A mutable session's state lives and dies with the
// connection: there is no session resumption, which is also why the client
// never auto-reconnects a mutable backend.
type serverConn struct {
	srv  *Server
	conn net.Conn
	busy atomic.Bool // a request is being served (graceful-shutdown hint)

	shard   *geometry.LocalShard
	mshard  *geometry.MutableLocalShard
	n       int    // global point count of the session (at open, for mutable)
	version uint16 // negotiated protocol version (0 until HELLO)

	// trace mirrors the client's current query trace (version-3 sessions):
	// one server-side span tree per propagated trace ID, announced in the
	// structured log on first sight and retained in the server's ring.
	trace *obs.Trace
}

func (sc *serverConn) serve() {
	defer func() {
		sc.conn.Close()
		if sc.mshard != nil {
			sc.mshard.Close()
		}
		sc.srv.mu.Lock()
		delete(sc.srv.conns, sc)
		sc.srv.mu.Unlock()
		sc.srv.wg.Done()
	}()
	br := bufio.NewReaderSize(sc.conn, 1<<16)
	bw := bufio.NewWriterSize(sc.conn, 1<<16)

	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return // peer went away (or shutdown closed us)
		}
		sc.busy.Store(true)
		respType, resp, herr := sc.handle(typ, payload)
		if herr != nil {
			sc.srv.logf("transport: %v: %v", sc.conn.RemoteAddr(), herr)
			werr := writeFrame(bw, msgError, encodeError(herr))
			sc.busy.Store(false)
			if werr != nil || herr.fatal || sc.srv.shuttingDown() {
				return
			}
			continue
		}
		werr := writeFrame(bw, respType, resp)
		sc.busy.Store(false)
		if werr != nil || sc.srv.shuttingDown() {
			return
		}
	}
}

// shuttingDown reports whether Shutdown or Close has begun. A connection
// checks it after clearing busy: Shutdown skips connections it sees busy,
// so one that finishes its request after that check must close itself
// rather than wait in readFrame for a peer that may never send again.
func (s *Server) shuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

// wireError is a server-side failure on its way into a msgError frame.
type wireError struct {
	code  uint16
	msg   string
	fatal bool // close the connection after reporting
}

func (e *wireError) Error() string { return e.msg }

func encodeError(e *wireError) []byte {
	w := &wbuf{}
	w.u16(e.code)
	w.str(e.msg)
	return w.b
}

// msgName names a request type for span and log labels.
func msgName(typ byte) string {
	switch typ {
	case msgPartials:
		return "partials"
	case msgDupCounts:
		return "dupcounts"
	case msgAppend:
		return "append"
	case msgDelete:
		return "delete"
	case msgMerge:
		return "merge"
	default:
		return fmt.Sprintf("msg%d", typ)
	}
}

// handle dispatches one request frame. On version-3 sessions the post-OPEN
// payload opens with the trace field; a propagated trace ID opens (or
// continues) the connection's server-side trace and the request runs under
// a span named for its type, so the server's view of a traced query lands
// in its log and trace ring under the client's ID. The trace never reaches
// the shard computation's results — only the context it runs under.
func (sc *serverConn) handle(typ byte, payload []byte) (byte, []byte, *wireError) {
	ctx := sc.srv.ctx
	var span *obs.Span
	if sc.version >= 3 && typ != msgHello && typ != msgOpen {
		if len(payload) < 1 {
			return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "missing trace field"}
		}
		switch payload[0] {
		case 0:
			payload = payload[1:]
		case 1:
			if len(payload) < 17 {
				return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "truncated trace field"}
			}
			var id obs.TraceID
			copy(id[:], payload[1:17])
			payload = payload[17:]
			if sc.trace.ID() != id {
				sc.trace = obs.NewTraceWith(id)
				sc.srv.traces.Add(sc.trace)
				sc.srv.opts.Log.Info("traced session",
					"trace", id.String(), "remote", sc.conn.RemoteAddr().String())
			}
			ctx = obs.ContextWith(ctx, sc.trace)
			ctx, span = obs.StartSpan(ctx, "rpc/"+msgName(typ))
		default:
			return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed trace field"}
		}
	}
	respType, resp, herr := sc.dispatch(ctx, typ, payload)
	span.End()
	return respType, resp, herr
}

func (sc *serverConn) dispatch(ctx context.Context, typ byte, payload []byte) (byte, []byte, *wireError) {
	switch typ {
	case msgHello:
		return sc.handleHello(payload)
	case msgOpen:
		return sc.handleOpen(payload)
	case msgPartials:
		return sc.handlePartials(ctx, payload)
	case msgDupCounts:
		return sc.handleDupCounts(ctx, payload)
	case msgAppend:
		return sc.handleAppend(ctx, payload)
	case msgDelete:
		return sc.handleDelete(ctx, payload)
	case msgMerge:
		return sc.handleMerge(ctx, payload)
	default:
		return 0, nil, &wireError{code: codeBadRequest, fatal: true,
			msg: fmt.Sprintf("unknown message type %d", typ)}
	}
}

func (sc *serverConn) handleHello(payload []byte) (byte, []byte, *wireError) {
	r := &rbuf{b: payload}
	magic := r.take(4)
	version := r.u16()
	if r.err != nil || [4]byte(magic) != wireMagic {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "not a shard-protocol hello"}
	}
	if version < minProtocolVersion {
		return 0, nil, &wireError{code: codeVersion, fatal: true,
			msg: fmt.Sprintf("server speaks protocol versions %d–%d, client sent %d", minProtocolVersion, ProtocolVersion, version)}
	}
	// Answer the highest version both sides speak: an old v2 client gets a
	// v2 session (no trace fields anywhere), a v3 client gets v3.
	v := version
	if v > ProtocolVersion {
		v = ProtocolVersion
	}
	sc.version = v
	w := &wbuf{}
	w.u16(v)
	return msgHelloOK, w.b, nil
}

func (sc *serverConn) handleOpen(payload []byte) (byte, []byte, *wireError) {
	r := &rbuf{b: payload}
	var cell geometry.CellIndexOptions
	cell.MinRadius = r.f64()
	cell.MaxRadius = r.f64()
	cell.LevelsPerOctave = int(r.u32())
	cell.CellsPerRadius = int(r.u32())
	cell.Workers = sc.srv.opts.Workers
	mutable := r.u8() == 1
	hasPoints := r.u8()
	n := int(r.u32())
	dim := int(r.u16())
	if r.err != nil || n <= 0 || dim <= 0 {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed open frame"}
	}
	if hasPoints != 1 {
		// Servers hold no data of their own: every handshake ships it.
		return 0, nil, &wireError{code: codeBadRequest, fatal: true,
			msg: fmt.Sprintf("open frame points byte is %d, want 1: the point set must travel in the handshake", hasPoints)}
	}
	points := r.frame(n, dim)
	m := int(r.u32())
	if r.err != nil || m <= 0 || m > n {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed open frame"}
	}
	members := make([]int32, m)
	for i := range members {
		members[i] = r.i32()
	}
	if r.err != nil || r.off != len(payload) {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed open frame"}
	}
	cfg := geometry.ShardConfig{Points: points, Members: members, Cell: cell}
	if mutable {
		mshard, err := geometry.NewMutableLocalShard(cfg)
		if err != nil {
			return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: err.Error()}
		}
		sc.mshard = mshard
	} else {
		shard, err := geometry.NewLocalShard(cfg)
		if err != nil {
			return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: err.Error()}
		}
		sc.shard = shard
	}
	sc.n = n
	w := &wbuf{}
	w.u32(uint32(m))
	w.u32(uint32(n))
	return msgOpenOK, w.b, nil
}

// backend returns the session's query backend (immutable or mutable), or
// nil before a successful OPEN. The epoch discipline is enforced by the
// geometry layer: an immutable shard rejects any non-zero epoch, a mutable
// one rejects the frozen epoch, so a client speaking the wrong epoch
// grammar gets a typed remote error either way.
func (sc *serverConn) backend() geometry.ShardBackend {
	if sc.mshard != nil {
		return sc.mshard
	}
	if sc.shard != nil {
		return sc.shard
	}
	return nil
}

func (sc *serverConn) handlePartials(ctx context.Context, payload []byte) (byte, []byte, *wireError) {
	be := sc.backend()
	if be == nil {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "request before open"}
	}
	r := &rbuf{b: payload}
	epoch := r.u64()
	j := int(r.i32())
	radius := r.f64()
	limit := r.i32()
	boundary := r.u8()
	if r.err != nil || r.off != len(payload) {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed partials frame"}
	}
	if boundary != 0 {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true,
			msg: fmt.Sprintf("partials frame names boundary rule %d; only 0 (center rule) is defined", boundary)}
	}
	counts, err := be.PartialCounts(ctx, epoch, j, radius, limit)
	if err != nil {
		return 0, nil, sc.computeError(err)
	}
	return msgCounts, encodeCounts(counts), nil
}

func (sc *serverConn) handleDupCounts(ctx context.Context, payload []byte) (byte, []byte, *wireError) {
	be := sc.backend()
	if be == nil {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "request before open"}
	}
	r := &rbuf{b: payload}
	epoch := r.u64()
	if r.err != nil || r.off != len(payload) {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed dupcounts frame"}
	}
	counts, err := be.DupCounts(ctx, epoch)
	if err != nil {
		return 0, nil, sc.computeError(err)
	}
	return msgCounts, encodeCounts(counts), nil
}

// mutableSession gates the mutation handlers: mutating an immutable
// session is an out-of-contract request, fatal to the connection.
func (sc *serverConn) mutableSession() *wireError {
	if sc.shard == nil && sc.mshard == nil {
		return &wireError{code: codeBadRequest, fatal: true, msg: "request before open"}
	}
	if sc.mshard == nil {
		return &wireError{code: codeBadRequest, fatal: true, msg: "mutation on an immutable session"}
	}
	return nil
}

func (sc *serverConn) handleAppend(ctx context.Context, payload []byte) (byte, []byte, *wireError) {
	if werr := sc.mutableSession(); werr != nil {
		return 0, nil, werr
	}
	r := &rbuf{b: payload}
	k := int(r.u32())
	dim := int(r.u16())
	if r.err != nil || k <= 0 || dim <= 0 {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed append frame"}
	}
	// The rows must be present before anything is sized by k: a claim
	// inflated past the payload fails here, not in a k-sized make.
	rows := r.frame(k, dim)
	if r.err != nil {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed append frame"}
	}
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = r.u64()
	}
	mcount := int(r.u32())
	if r.err != nil || mcount < 0 || mcount > k {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed append frame"}
	}
	memberLocal := make([]int32, mcount)
	for i := range memberLocal {
		memberLocal[i] = r.i32()
	}
	if r.err != nil || r.off != len(payload) {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed append frame"}
	}
	epoch, err := sc.mshard.Append(ctx, rows, memberLocal, ids)
	if err != nil {
		return 0, nil, sc.computeError(err)
	}
	return msgEpoch, encodeEpoch(epoch, sc.mshard.NPoints()), nil
}

func (sc *serverConn) handleDelete(ctx context.Context, payload []byte) (byte, []byte, *wireError) {
	if werr := sc.mutableSession(); werr != nil {
		return 0, nil, werr
	}
	r := &rbuf{b: payload}
	k := int(r.u32())
	if r.err != nil || k <= 0 || 8*k > len(payload)-r.off {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed delete frame"}
	}
	ids := make([]uint64, k)
	for i := range ids {
		ids[i] = r.u64()
	}
	if r.err != nil || r.off != len(payload) {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed delete frame"}
	}
	epoch, err := sc.mshard.Delete(ctx, ids)
	if err != nil {
		return 0, nil, sc.computeError(err)
	}
	return msgEpoch, encodeEpoch(epoch, sc.mshard.NPoints()), nil
}

// handleMerge folds the session shard's append deltas under the server
// context, so a shutdown cancels an in-flight merge rather than waiting
// out an index rebuild.
func (sc *serverConn) handleMerge(ctx context.Context, payload []byte) (byte, []byte, *wireError) {
	if werr := sc.mutableSession(); werr != nil {
		return 0, nil, werr
	}
	if len(payload) != 0 {
		return 0, nil, &wireError{code: codeBadRequest, fatal: true, msg: "malformed merge frame"}
	}
	if err := sc.mshard.Merge(ctx); err != nil {
		return 0, nil, sc.computeError(err)
	}
	epoch, err := sc.mshard.CurrentEpoch(ctx)
	if err != nil {
		return 0, nil, sc.computeError(err)
	}
	return msgEpoch, encodeEpoch(epoch, sc.mshard.NPoints()), nil
}

// computeError maps a shard-side failure to a wire error. A cancelled
// server context means shutdown: report it as such and close.
func (sc *serverConn) computeError(err error) *wireError {
	if errors.Is(err, context.Canceled) {
		return &wireError{code: codeShuttingDown, fatal: true, msg: "server shutting down"}
	}
	return &wireError{code: codeInternal, msg: err.Error()}
}
