package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"privcluster/internal/geometry"
	"privcluster/internal/obs"
	"privcluster/internal/vec"
)

// helloVersion is the version the client offers in its HELLO — normally
// the package's ProtocolVersion; tests pin it lower to exercise the
// negotiated-down grammar against a newer server.
var helloVersion = ProtocolVersion

// DialFunc opens a raw connection to a shard server. The default is TCP
// via net.Dialer; tests and single-process deployments substitute
// (*LoopbackNet).Dial.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Options configures a RemoteShard client.
type Options struct {
	// Dial opens connections (nil = TCP).
	Dial DialFunc
	// DialTimeout caps connection establishment plus handshake when the
	// caller's context has no earlier deadline (default 10s).
	DialTimeout time.Duration
	// Retries is how many times a call is re-attempted after a transport
	// failure (dial or broken connection) before the error is returned.
	// Application errors and cancellations are never retried. Default 1;
	// negative means 0.
	Retries int
	// Mutable opens an epoch/mutation session: the server builds a
	// MutableLocalShard and the client implements
	// geometry.MutableShardBackend. Mutable sessions never reconnect — the
	// session's epochs live in the server connection, and a silent
	// re-handshake would resurrect an empty-delta shard that answers
	// wrongly — so a broken connection fails the backend permanently (the
	// coordinator marks its index broken). It also makes the non-idempotent
	// mutations unrepeatable, which is exactly right.
	Mutable bool
}

func (o Options) withDefaults() Options {
	if o.Dial == nil {
		var d net.Dialer
		o.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	switch {
	case o.Retries == 0:
		o.Retries = 1
	case o.Retries < 0:
		o.Retries = 0
	}
	return o
}

// RemoteShard is the client side of one shard: it implements
// geometry.ShardBackend by speaking the wire protocol to a shard server.
// Each bulk query is one batched round trip. On an immutable session a
// broken connection is closed, re-dialed and re-handshaken transparently
// within the retry budget (every request is a pure read of immutable
// shard state, so retries are safe); failures surface as *Error with a
// Kind. A mutable session (Options.Mutable) is never reconnected and
// never retried: its epochs live in the server connection, and a silent
// re-handshake would resurrect an empty-delta shard.
//
// Context handling: a deadline on the call's ctx is installed as the
// connection deadline for the round trip, and cancellation fires a
// context.AfterFunc that forces the in-flight read/write to fail
// immediately — a cancelled BuildLStep sweep tears down its network call
// instead of waiting for the server.
//
// A RemoteShard serializes its calls under a mutex (the contract
// geometry.ShardedIndex relies on — it never issues concurrent calls to
// one backend, but a second caller degrades to waiting, not corruption).
type RemoteShard struct {
	addr string
	cfg  geometry.ShardConfig
	opts Options
	dim  int

	mu         sync.Mutex
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	closed     bool
	handshaken bool   // a session was established at least once
	version    uint16 // the session's negotiated protocol version
}

// DialShard connects to addr and performs the handshake, returning a
// ready backend for the shard cfg describes. The config's cell options
// must already be pinned to the shared global ladder
// (geometry.NewShardedIndexBackends does this for every dialer).
func DialShard(ctx context.Context, addr string, cfg geometry.ShardConfig, opts Options) (*RemoteShard, error) {
	if cfg.Points == nil || cfg.Points.N() == 0 || len(cfg.Members) == 0 {
		n := 0
		if cfg.Points != nil {
			n = cfg.Points.N()
		}
		return nil, &Error{Op: "dial", Addr: addr, Kind: KindDial,
			Err: fmt.Errorf("empty shard config (points=%d, members=%d)", n, len(cfg.Members))}
	}
	c := &RemoteShard{addr: addr, cfg: cfg, opts: opts.withDefaults(), dim: cfg.Points.Dim()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConnLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// MutableShardDialer adapts a server address list to the
// geometry.MutableShardDialer seam: shard s is served by an epoch session
// on addrs[s] (Options.Mutable is forced), so
// geometry.NewMutableShardedIndexBackends can coordinate streaming
// ingestion over remote shard servers. Epoch sessions cannot fail over,
// so there is one address per shard, never a replica set.
func MutableShardDialer(addrs []string, opts Options) geometry.MutableShardDialer {
	opts.Mutable = true
	return func(ctx context.Context, shard int, cfg geometry.ShardConfig) (geometry.MutableShardBackend, error) {
		return DialShard(ctx, addrs[shard%len(addrs)], cfg, opts)
	}
}

var _ geometry.MutableShardBackend = (*RemoteShard)(nil)

// NPoints returns the number of points the shard holds.
func (c *RemoteShard) NPoints() int { return len(c.cfg.Members) }

// Close tears down the connection; subsequent calls fail with KindClosed.
func (c *RemoteShard) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return c.resetConnLocked()
}

// Addr returns the shard server address (diagnostic).
func (c *RemoteShard) Addr() string { return c.addr }

// countsWant returns the strict slot count expected of a bulk response at
// the given epoch: the frozen snapshot's row count is the config's, while
// a pinned epoch's is known only shard-side (the geometry coordinator
// validates it against the pinned view).
func (c *RemoteShard) countsWant(epoch geometry.Epoch) int {
	if epoch == geometry.EpochFrozen {
		return c.cfg.Points.N()
	}
	return -1
}

// PartialCounts runs one capped bulk-count pass on the server: a single
// round trip whose response carries the shard's contribution around every
// global point of the pinned epoch.
func (c *RemoteShard) PartialCounts(ctx context.Context, epoch geometry.Epoch, j int, r float64, limit int32) ([]int32, error) {
	w := &wbuf{b: make([]byte, 0, 25)}
	w.b = binary.BigEndian.AppendUint64(w.b, epoch)
	w.i32(int32(j))
	w.f64(r)
	w.i32(limit)
	w.u8(0) // boundary rule: the center rule, the only one defined
	payload, err := c.call(ctx, "partials", msgPartials, w.b, msgCounts)
	if err != nil {
		return nil, err
	}
	counts, err := decodeCounts(payload, c.countsWant(epoch))
	if err != nil {
		return nil, &Error{Op: "partials", Addr: c.addr, Kind: KindProtocol, Err: err}
	}
	return counts, nil
}

// DupCounts fetches the shard's duplicate-table contribution at the
// pinned epoch.
func (c *RemoteShard) DupCounts(ctx context.Context, epoch geometry.Epoch) ([]int32, error) {
	w := &wbuf{b: make([]byte, 0, 8)}
	w.b = binary.BigEndian.AppendUint64(w.b, epoch)
	payload, err := c.call(ctx, "dupcounts", msgDupCounts, w.b, msgCounts)
	if err != nil {
		return nil, err
	}
	counts, err := decodeCounts(payload, c.countsWant(epoch))
	if err != nil {
		return nil, &Error{Op: "dupcounts", Addr: c.addr, Kind: KindProtocol, Err: err}
	}
	return counts, nil
}

// errNotMutable rejects mutation calls on an immutable session client-side
// (the server would also refuse, fatally).
func (c *RemoteShard) errNotMutable(op string) error {
	return &Error{Op: op, Addr: c.addr, Kind: KindRemote,
		Err: errors.New("mutation on an immutable shard session (dial with Options.Mutable)")}
}

// epochResponse decodes the msgEpoch payload of a mutation round trip.
func (c *RemoteShard) epochResponse(op string, payload []byte) (geometry.Epoch, error) {
	epoch, _, err := decodeEpoch(payload)
	if err != nil {
		return 0, &Error{Op: op, Addr: c.addr, Kind: KindProtocol, Err: err}
	}
	return epoch, nil
}

// Append lands one epoch-advancing append batch on the shard session (see
// geometry.MutableShardBackend). Never retried: a mutation is not
// idempotent, so any transport failure poisons the session instead.
func (c *RemoteShard) Append(ctx context.Context, rows *vec.Frame, memberLocal []int32, ids []uint64) (geometry.Epoch, error) {
	if !c.opts.Mutable {
		return 0, c.errNotMutable("append")
	}
	if rows == nil || rows.N() == 0 || len(ids) != rows.N() {
		return 0, &Error{Op: "append", Addr: c.addr, Kind: KindRemote,
			Err: fmt.Errorf("append of %d rows with %d ids", rowCount(rows), len(ids))}
	}
	if rows.Dim() != c.dim {
		return 0, &Error{Op: "append", Addr: c.addr, Kind: KindRemote,
			Err: fmt.Errorf("append of dimension %d, want %d", rows.Dim(), c.dim)}
	}
	w := &wbuf{b: make([]byte, 0, 10+8*rows.N()*(c.dim+1)+4+4*len(memberLocal))}
	w.u32(uint32(rows.N()))
	w.u16(uint16(c.dim))
	w.frame(rows)
	for _, id := range ids {
		w.b = binary.BigEndian.AppendUint64(w.b, id)
	}
	w.u32(uint32(len(memberLocal)))
	for _, li := range memberLocal {
		w.i32(li)
	}
	payload, err := c.call(ctx, "append", msgAppend, w.b, msgEpoch)
	if err != nil {
		return 0, err
	}
	return c.epochResponse("append", payload)
}

// Delete lands one epoch-advancing delete batch on the shard session.
// Never retried, like Append.
func (c *RemoteShard) Delete(ctx context.Context, ids []uint64) (geometry.Epoch, error) {
	if !c.opts.Mutable {
		return 0, c.errNotMutable("delete")
	}
	if len(ids) == 0 {
		return 0, &Error{Op: "delete", Addr: c.addr, Kind: KindRemote,
			Err: errors.New("delete of no rows")}
	}
	w := &wbuf{b: make([]byte, 0, 4+8*len(ids))}
	w.u32(uint32(len(ids)))
	for _, id := range ids {
		w.b = binary.BigEndian.AppendUint64(w.b, id)
	}
	payload, err := c.call(ctx, "delete", msgDelete, w.b, msgEpoch)
	if err != nil {
		return 0, err
	}
	return c.epochResponse("delete", payload)
}

// Merge folds the session shard's append deltas into its base, server
// side.
func (c *RemoteShard) Merge(ctx context.Context) error {
	if !c.opts.Mutable {
		return c.errNotMutable("merge")
	}
	payload, err := c.call(ctx, "merge", msgMerge, nil, msgEpoch)
	if err != nil {
		return err
	}
	_, err = c.epochResponse("merge", payload)
	return err
}

// rowCount is a nil-safe frame row count for error messages.
func rowCount(f *vec.Frame) int {
	if f == nil {
		return 0
	}
	return f.N()
}

// call performs one request/response round trip with reconnect-and-retry.
// Mutable sessions get zero retries: re-sending a mutation could apply it
// twice, and re-sending a query after a reconnect would run it against a
// freshly recreated session that lost every epoch.
func (c *RemoteShard) call(ctx context.Context, op string, reqType byte, req []byte, wantResp byte) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, &Error{Op: op, Addr: c.addr, Kind: KindClosed, Err: ErrClosed}
	}
	retries := c.opts.Retries
	if c.opts.Mutable {
		retries = 0
	}
	var last error
	for attempt := 0; attempt <= retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, &Error{Op: op, Addr: c.addr, Kind: KindCanceled, Err: err}
		}
		if err := c.ensureConnLocked(ctx); err != nil {
			var te *Error
			if errors.As(err, &te) && (te.Kind == KindVersion || te.Kind == KindCanceled) {
				return nil, err // re-dialing cannot change either outcome
			}
			last = err
			continue
		}
		// Version-3 sessions prefix every request with the trace field; the
		// prefix is rebuilt per attempt because a reconnect can renegotiate
		// the session version.
		sendReq := req
		if c.version >= 3 {
			var pfx [17]byte
			n := 1
			if id := obs.FromContext(ctx).ID(); !id.IsZero() {
				pfx[0] = 1
				copy(pfx[1:], id[:])
				n = 17
			}
			sendReq = append(pfx[:n:n], req...)
		}
		payload, err := c.roundTripLocked(ctx, op, reqType, sendReq, wantResp)
		if err == nil {
			return payload, nil
		}
		var te *Error
		if errors.As(err, &te) && te.Kind == KindRemote {
			// The error frame was read in full — the stream is clean and
			// the transport healthy; retrying re-runs the same failure.
			return nil, err
		}
		// Any other failure may have left a frame half-read: drop the
		// connection so the next attempt re-dials and re-handshakes.
		c.resetConnLocked()
		if errors.As(err, &te) && te.Kind == KindCanceled {
			return nil, err // the caller gave up; nothing to retry
		}
		last = err
		if cerr := ctx.Err(); cerr != nil {
			return nil, &Error{Op: op, Addr: c.addr, Kind: KindCanceled, Err: cerr}
		}
	}
	return nil, last
}

// roundTripLocked writes one request frame and reads its response on the
// live connection, propagating the ctx deadline onto the connection and
// arming an AfterFunc so cancellation interrupts the blocking I/O.
func (c *RemoteShard) roundTripLocked(ctx context.Context, op string, reqType byte, req []byte, wantResp byte) ([]byte, error) {
	conn := c.conn
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Time{})
	}
	stop := context.AfterFunc(ctx, func() {
		// A deadline in the past fails the in-flight Read/Write now.
		conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()

	if err := writeFrame(c.bw, reqType, req); err != nil {
		return nil, c.ioError(ctx, op, err)
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return nil, c.ioError(ctx, op, err)
	}
	conn.SetDeadline(time.Time{})
	switch typ {
	case wantResp:
		return payload, nil
	case msgError:
		return nil, c.remoteError(op, payload)
	default:
		return nil, &Error{Op: op, Addr: c.addr, Kind: KindProtocol,
			Err: fmt.Errorf("unexpected message type %d, want %d", typ, wantResp)}
	}
}

// ioError classifies a read/write failure: the caller's cancellation
// wins over the I/O symptom it caused.
func (c *RemoteShard) ioError(ctx context.Context, op string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return &Error{Op: op, Addr: c.addr, Kind: KindCanceled, Err: cerr}
	}
	return &Error{Op: op, Addr: c.addr, Kind: KindIO, Err: err}
}

// remoteError decodes a msgError frame into a typed error.
func (c *RemoteShard) remoteError(op string, payload []byte) error {
	r := &rbuf{b: payload}
	code := r.u16()
	msg := r.str()
	if r.err != nil {
		return &Error{Op: op, Addr: c.addr, Kind: KindProtocol, Err: r.err}
	}
	if code == codeVersion {
		return &Error{Op: op, Addr: c.addr, Kind: KindVersion,
			Err: fmt.Errorf("%w: %s", ErrVersionMismatch, msg)}
	}
	return &Error{Op: op, Addr: c.addr, Kind: KindRemote, Err: errors.New(msg)}
}

// ensureConnLocked dials and handshakes if no live connection exists. A
// mutable session refuses to reconnect once its first connection is gone:
// the session state (epochs, deltas) died with it, and a fresh handshake
// would silently recreate an empty-delta shard that answers wrongly.
func (c *RemoteShard) ensureConnLocked(ctx context.Context) error {
	if c.conn != nil {
		return nil
	}
	if c.opts.Mutable && c.handshaken {
		return &Error{Op: "dial", Addr: c.addr, Kind: KindIO,
			Err: errors.New("mutable shard session lost (connection broken; epochs are not resumable)")}
	}
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, c.opts.DialTimeout)
		defer cancel()
	}
	conn, err := c.opts.Dial(dctx, c.addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return &Error{Op: "dial", Addr: c.addr, Kind: KindCanceled, Err: cerr}
		}
		return &Error{Op: "dial", Addr: c.addr, Kind: KindDial, Err: err}
	}
	c.conn = conn
	c.br = bufio.NewReaderSize(conn, 1<<16)
	c.bw = bufio.NewWriterSize(conn, 1<<16)
	if err := c.handshakeLocked(dctx); err != nil {
		c.resetConnLocked()
		return err
	}
	c.handshaken = true
	return nil
}

// handshakeLocked runs HELLO/HELLO_OK then OPEN/OPEN_OK on the fresh
// connection. The OPEN frame ships the pinned cell options, the full global
// point set and the member ids.
func (c *RemoteShard) handshakeLocked(ctx context.Context) error {
	conn := c.conn
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	hello := &wbuf{}
	hello.b = append(hello.b, wireMagic[:]...)
	hello.u16(helloVersion)
	if err := writeFrame(c.bw, msgHello, hello.b); err != nil {
		return c.handshakeError(ctx, err)
	}
	typ, payload, err := readFrame(c.br)
	if err != nil {
		return c.handshakeError(ctx, err)
	}
	if typ == msgError {
		return c.remoteError("handshake", payload)
	}
	if typ != msgHelloOK {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindProtocol,
			Err: fmt.Errorf("unexpected message type %d", typ)}
	}
	r := &rbuf{b: payload}
	// The server answers min(offered, its own); anything above our offer or
	// below the floor is a peer we cannot talk to.
	v := r.u16()
	if r.err != nil || v < minProtocolVersion || v > helloVersion {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindVersion,
			Err: fmt.Errorf("%w: server answered version %d, want %d–%d", ErrVersionMismatch, v, minProtocolVersion, helloVersion)}
	}
	c.version = v

	open := &wbuf{b: make([]byte, 0, 64+8*c.cfg.Points.N()*c.dim+4*len(c.cfg.Members))}
	open.f64(c.cfg.Cell.MinRadius)
	open.f64(c.cfg.Cell.MaxRadius)
	open.u32(uint32(c.cfg.Cell.LevelsPerOctave))
	open.u32(uint32(c.cfg.Cell.CellsPerRadius))
	if c.opts.Mutable {
		open.u8(1)
	} else {
		open.u8(0)
	}
	open.u8(1) // the points byte: the point set follows
	open.u32(uint32(c.cfg.Points.N()))
	open.u16(uint16(c.dim))
	open.frame(c.cfg.Points)
	open.u32(uint32(len(c.cfg.Members)))
	for _, m := range c.cfg.Members {
		open.u32(uint32(m))
	}
	if err := writeFrame(c.bw, msgOpen, open.b); err != nil {
		return c.handshakeError(ctx, err)
	}
	typ, payload, err = readFrame(c.br)
	if err != nil {
		return c.handshakeError(ctx, err)
	}
	if typ == msgError {
		return c.remoteError("handshake", payload)
	}
	if typ != msgOpenOK {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindProtocol,
			Err: fmt.Errorf("unexpected message type %d", typ)}
	}
	r = &rbuf{b: payload}
	m, n := int(r.u32()), int(r.u32())
	if r.err != nil {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindProtocol, Err: r.err}
	}
	if m != len(c.cfg.Members) || n != c.cfg.Points.N() {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindProtocol,
			Err: fmt.Errorf("server echoed shard %d/%d, want %d/%d", m, n, len(c.cfg.Members), c.cfg.Points.N())}
	}
	conn.SetDeadline(time.Time{})
	return nil
}

func (c *RemoteShard) handshakeError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return &Error{Op: "handshake", Addr: c.addr, Kind: KindCanceled, Err: cerr}
	}
	return &Error{Op: "handshake", Addr: c.addr, Kind: KindDial, Err: err}
}

// resetConnLocked closes and forgets the connection.
func (c *RemoteShard) resetConnLocked() error {
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn, c.br, c.bw = nil, nil, nil
	}
	return err
}
