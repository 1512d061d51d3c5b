package transport

import (
	"errors"
	"fmt"
)

// Kind classifies a transport failure — what went wrong, independent of
// which call it broke.
type Kind int

const (
	// KindDial: a connection could not be established (or re-established
	// for a retry) — dial failure, or a handshake that never completed.
	KindDial Kind = iota + 1
	// KindIO: an established connection broke mid-call (peer died, reset,
	// deadline hit on a healthy ctx). The client closes the poisoned
	// connection and, within its retry budget, reconnects.
	KindIO
	// KindProtocol: the peer sent a frame outside the protocol grammar —
	// wrong magic, unexpected message type, truncated or oversized
	// payload. Never retried: the peer is not speaking this protocol.
	KindProtocol
	// KindVersion: version negotiation failed (the error wraps
	// ErrVersionMismatch). Never retried.
	KindVersion
	// KindRemote: the server answered with an application error (bad
	// request, shard-side failure). The transport is healthy; retrying
	// would re-run the same failing request, so the client does not.
	KindRemote
	// KindCanceled: the caller's context was cancelled or its deadline
	// expired; the error wraps ctx.Err(), so errors.Is against
	// context.Canceled / context.DeadlineExceeded still works.
	KindCanceled
	// KindClosed: the client was used after Close.
	KindClosed
)

func (k Kind) String() string {
	switch k {
	case KindDial:
		return "dial"
	case KindIO:
		return "io"
	case KindProtocol:
		return "protocol"
	case KindVersion:
		return "version"
	case KindRemote:
		return "remote"
	case KindCanceled:
		return "canceled"
	case KindClosed:
		return "closed"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Error is the typed failure every transport operation returns: which
// shard address, which operation, what kind of failure, and the
// underlying cause (unwrappable). geometry.ShardedIndex propagates it
// unchanged, so a caller of BuildLStep on a remote-backed index can
// errors.As it back out and read the Kind.
type Error struct {
	Op   string // "dial", "handshake", "partials", "dupcounts", "append", ...
	Addr string
	Kind Kind
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("transport: %s %s [%s]: %v", e.Op, e.Addr, e.Kind, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// ErrVersionMismatch is wrapped by KindVersion errors: the peer does not
// speak ProtocolVersion.
var ErrVersionMismatch = errors.New("transport: protocol version mismatch")

// ErrClosed is wrapped by KindClosed errors and returned by servers and
// listeners used after Close/Shutdown.
var ErrClosed = errors.New("transport: use after close")
