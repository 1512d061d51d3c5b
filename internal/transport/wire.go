// Package transport moves the geometry.ShardBackend queries of a sharded
// ball index across process and machine boundaries: a versioned,
// length-prefixed binary wire protocol over net.Conn, a Server that hosts
// shards behind it, a RemoteShard client that implements
// geometry.ShardBackend, and a socketless loopback net for deterministic
// in-process testing.
//
// # Protocol
//
// Every message is one frame:
//
//	uint32  payload length (big endian)
//	uint8   message type
//	[]byte  payload (length bytes)
//
// A connection speaks a strict request/response sequence. It opens with a
// handshake — HELLO (magic "PCSH" + protocol version) answered by
// HELLO_OK, then OPEN (the shard's geometry.ShardConfig: pinned cell
// options, a mutability flag, a points byte, the global point set and the
// shard's member ids) answered by OPEN_OK — after which
// the client issues one request frame at a time (PARTIALS, DUP_COUNTS,
// and on mutable sessions APPEND, DELETE, MERGE)
// and reads one response frame (COUNTS, EPOCH, or ERROR). Queries are
// batched by construction: a single PARTIALS round trip carries the capped
// counts for every global point, so the per-sweep network cost is one
// round trip per (ladder level × shard), never per point.
//
// A PARTIALS payload is the epoch (uint64), the ladder level (int32), the
// radius (float64), the count cap (int32) and a boundary-rule byte. The
// byte must be 0, the center rule of the L estimators — the only rule the
// serving path uses; servers answer any other value with a bad-request
// ERROR. Message types 7 and 12 (EPOCH_GET) are retired (see the type
// table). Likewise the OPEN points byte must be 1, the point set following
// it: servers hold no data of their own, and answer any other value (the
// retired preloaded-points handshake sent 0 and a checksum) with a
// bad-request ERROR. A point set or APPEND batch holding a NaN or infinite
// coordinate is answered with an ERROR (geometry.ErrOutOfDomain): no such
// row reaches a count.
//
// Epochs: every query frame opens with the uint64 epoch it must be
// answered from — 0 (geometry.EpochFrozen) on immutable sessions, a
// concrete pinned epoch on mutable ones. Mutations (APPEND/DELETE) advance
// the session's epoch by exactly one and answer with an EPOCH frame; the
// coordinator drives all shards of one index in lockstep, so a pinned
// query hits the same snapshot on every replica.
//
// Versioning: the version is negotiated in the handshake. The client's
// HELLO carries the highest version it speaks; the server answers with
// min(client, server) provided both sides speak at least version 2, so a
// v3 client interoperates with a v2 server (and vice versa) by settling on
// the common grammar. A server that cannot meet the client answers with a
// typed ERROR frame (code version-mismatch) and the client surfaces
// ErrVersionMismatch; unknown message types on an established connection
// are protocol errors that close it. The version covers the whole frame
// grammar — any change to payload layouts bumps it.
//
// Tracing (version 3): on a session negotiated at version 3 or above,
// every post-OPEN request payload opens with a one-byte trace flag — 0
// (untraced; nothing follows) or 1 followed by the 16-byte trace ID of the
// client's query trace. The server tags its logs and per-request spans
// with the propagated ID, so one traced query correlates across the
// client and every shard server it fanned out to. The field never
// influences answers: a v3 session with flag 0 on every frame computes
// byte-identical responses to a v2 session, and trace IDs carry no data
// derived from the points.
//
// All integers are big endian; float64 coordinates travel as their IEEE
// bit patterns, so the points a server indexes are bit-identical to the
// client's and the equivalence contract of geometry.ShardedIndex survives
// the wire.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"privcluster/internal/vec"
)

// ProtocolVersion is the highest wire protocol version this package
// speaks. Version 2 added mutable sessions: the OPEN mutability flag, the
// leading epoch on every query frame, and the APPEND/DELETE/EPOCH_GET/
// MERGE request types with their EPOCH response (EPOCH_GET is retired
// since; a mutation's EPOCH response carries the new epoch). Version 3 added the
// optional trace-ID prefix on post-OPEN request payloads (see the package
// comment); sessions negotiate down to version 2 against older peers.
const ProtocolVersion uint16 = 3

// minProtocolVersion is the oldest version either side still accepts in
// negotiation: the version-2 grammar is the floor (version 1 predates the
// epoch discipline the geometry layer now requires).
const minProtocolVersion uint16 = 2

// wireMagic opens every HELLO frame: a connection that does not start
// with it is not speaking this protocol at all.
var wireMagic = [4]byte{'P', 'C', 'S', 'H'}

// maxFramePayload bounds a frame's declared payload length so a corrupt
// or hostile peer cannot make the reader allocate unboundedly. 1 GiB
// covers ~16M points of dimension 8 in one OPEN frame.
const maxFramePayload = 1 << 30

// Message types.
const (
	msgHello    = 1 // client → server: magic + version
	msgHelloOK  = 2 // server → client: accepted version
	msgOpen     = 3 // client → server: shard config
	msgOpenOK   = 4 // server → client: member/global count echo
	msgPartials = 5 // client → server: one capped bulk-count pass
	msgCounts   = 6 // server → client: []int32 results
	// 7 is retired and reserved: it carried CountBatch (exact counts
	// around ad-hoc centers), which no serving path needs. Servers reject
	// it like any unknown type, and it must never be reassigned.
	msgDupCounts = 8  // client → server: duplicate-table contribution
	msgError     = 9  // server → client: typed failure
	msgAppend    = 10 // client → server: one epoch-advancing append batch
	msgDelete    = 11 // client → server: one epoch-advancing delete batch
	// 12 is retired and reserved: it carried EPOCH_GET (the session's
	// current epoch), which no client path sends. Servers reject it like
	// any unknown type, and it must never be reassigned.
	msgMerge = 13 // client → server: fold append deltas into the base
	msgEpoch = 14 // server → client: epoch + member-row count
)

// Server-side error codes carried by msgError frames.
const (
	codeVersion      = 1 // protocol version not supported
	codeBadRequest   = 2 // malformed or out-of-contract request
	codeInternal     = 3 // shard-side failure while serving the request
	codeShuttingDown = 4 // server is draining; reconnect elsewhere
)

// writeFrame writes one frame and flushes it.
func writeFrame(w interface {
	io.Writer
	Flush() error
}, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame, bounding the payload size.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("frame payload of %d bytes exceeds the %d limit", n, maxFramePayload)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// wbuf builds a payload.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8)   { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) i32(v int32)  { w.u32(uint32(v)) }
func (w *wbuf) f64(v float64) {
	w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(v))
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// frame encodes a Frame's coordinates straight from its flat backing slice —
// one pass, no per-row indirection: big-endian float64 bit patterns in
// row-major order.
func (w *wbuf) frame(f *vec.Frame) {
	data := f.Data()
	w.b = slices.Grow(w.b, 8*len(data))
	for _, x := range data {
		w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(x))
	}
}

// errTruncated marks a payload shorter than its grammar requires.
var errTruncated = errors.New("truncated payload")

// rbuf decodes a payload with sticky errors: after the first failure every
// read returns zero values, and the caller checks err once at the end.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) || r.off+n < r.off {
		r.err = errTruncated
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *rbuf) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *rbuf) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (r *rbuf) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (r *rbuf) i32() int32 { return int32(r.u32()) }

func (r *rbuf) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (r *rbuf) f64() float64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(s))
}

func (r *rbuf) str() string {
	n := int(r.u32())
	if n > len(r.b)-r.off {
		r.err = errTruncated
		return ""
	}
	return string(r.take(n))
}

// flat decodes k·d float64 coordinates into one flat allocation. The
// allocation is bounded by the bytes actually present: header-claimed counts
// a malformed or hostile frame inflates past its payload fail as truncated
// here, before any make() can OOM or panic the server (the maxFramePayload
// cap alone bounds the payload, not what a frame claims to contain).
func (r *rbuf) flat(k, d int) []float64 {
	if r.err != nil {
		return nil
	}
	if k < 0 || d < 0 || (k > 0 && d == 0) {
		r.err = errTruncated
		return nil
	}
	if need := 8 * k * d; need < 0 || need > len(r.b)-r.off {
		r.err = errTruncated
		return nil
	}
	flat := make([]float64, k*d)
	for i := range flat {
		flat[i] = r.f64()
	}
	if r.err != nil {
		return nil
	}
	return flat
}

// frame decodes k rows of dimension d straight into a Frame wrapping the
// flat allocation — the decode-side counterpart of wbuf.frame.
func (r *rbuf) frame(k, d int) *vec.Frame {
	flat := r.flat(k, d)
	if flat == nil {
		return nil
	}
	f, err := vec.FrameFromData(flat, d)
	if err != nil {
		r.err = err
		return nil
	}
	return f
}

// counts decodes a msgCounts payload. want >= 0 enforces the expected
// slot count; want < 0 accepts any self-consistent length — the
// pinned-epoch bulk responses, whose row count only the epoch's snapshot
// knows (the geometry layer validates it against the pinned view).
func decodeCounts(payload []byte, want int) ([]int32, error) {
	r := &rbuf{b: payload}
	k := int(r.u32())
	if want >= 0 && k != want {
		return nil, fmt.Errorf("counts response carries %d slots, want %d", k, want)
	}
	if k < 0 || 4*k > len(payload)-r.off {
		return nil, errTruncated
	}
	out := make([]int32, k)
	for i := range out {
		out[i] = r.i32()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("counts response has %d trailing bytes", len(payload)-r.off)
	}
	return out, nil
}

// encodeCounts builds a msgCounts payload.
func encodeCounts(counts []int32) []byte {
	w := &wbuf{b: make([]byte, 0, 4+4*len(counts))}
	w.u32(uint32(len(counts)))
	for _, c := range counts {
		w.i32(c)
	}
	return w.b
}

// encodeEpoch builds a msgEpoch payload: the session's epoch plus its
// member-row count (a cheap consistency echo for diagnostics).
func encodeEpoch(epoch uint64, rows int) []byte {
	w := &wbuf{b: make([]byte, 0, 12)}
	w.b = binary.BigEndian.AppendUint64(w.b, epoch)
	w.u32(uint32(rows))
	return w.b
}

// decodeEpoch decodes a msgEpoch payload.
func decodeEpoch(payload []byte) (epoch uint64, rows int, err error) {
	r := &rbuf{b: payload}
	epoch = r.u64()
	rows = int(r.u32())
	if r.err != nil {
		return 0, 0, r.err
	}
	if r.off != len(payload) {
		return 0, 0, fmt.Errorf("epoch response has %d trailing bytes", len(payload)-r.off)
	}
	return epoch, rows, nil
}
