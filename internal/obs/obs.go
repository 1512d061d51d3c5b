// Package obs is the zero-dependency observability layer: context-propagated
// trace IDs with hierarchical spans, a process-wide registry of counters,
// gauges and histograms rendered in the Prometheus text exposition format,
// and a structured slog-based logger with a slow-query threshold.
//
// The package is deliberately dumb about what it measures: spans and metrics
// carry names, durations, counts and sizes — never point coordinates,
// dataset values, or noise magnitudes. That restriction is the privacy
// stance of the whole telemetry surface (see the "Observability" section of
// the privcluster package documentation) and is enforced by tests, so keep
// every field of every type in this package a duration, a count, or a
// label string chosen from a fixed taxonomy.
//
// Tracing is opt-in per context and free when absent: StartSpan on a
// context without a trace returns the context unchanged and a nil *Span
// whose methods are all no-ops, so instrumented code needs no branches and
// the disabled fast path costs one context lookup and zero allocations.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceID is a 16-byte query-trace identifier. It is generated at the query
// entry point (library caller, daemon request) and propagated through
// contexts, the wire protocol's optional trace field, and log lines, so one
// query's work can be correlated across processes.
type TraceID [16]byte

// NewTraceID returns a random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand failure is effectively impossible on supported
		// platforms; a zero ID (meaning "untraced") is the safe fallback.
		return TraceID{}
	}
	return id
}

// IsZero reports whether the ID is the zero value, which means "no trace".
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, fmt.Errorf("obs: trace id must be %d hex digits, got %q", 2*len(id), s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: bad trace id %q: %v", s, err)
	}
	return id, nil
}

// maxSpans caps the number of spans one trace will record. Past the cap,
// StartSpan degrades to a no-op rather than growing without bound — a deep
// sharded sweep can otherwise mint a span per RPC.
const maxSpans = 4096

// Trace is one query's span tree. A Trace is created at the query entry
// point, carried by context, and read back out (Tree, Spans) after the
// query completes. All methods are safe for concurrent use; spans may be
// started from the fan-out goroutines of a sharded sweep.
type Trace struct {
	id    TraceID
	start time.Time

	mu   sync.Mutex
	root *Span
	n    int
}

// NewTrace starts a trace with a fresh random ID.
func NewTrace() *Trace { return NewTraceWith(NewTraceID()) }

// NewTraceWith starts a trace with the given ID — the server side of a
// propagated trace uses the client's ID so the two halves correlate.
func NewTraceWith(id TraceID) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's identifier. Nil-safe: a nil trace has a zero ID.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Span is one timed stage of a trace: a name from the span taxonomy, start
// and end instants, optional named counters (operation counts, sizes —
// never data values), and child spans. A nil *Span is valid and all its
// methods are no-ops, which is how the disabled fast path stays branch-free
// at call sites.
type Span struct {
	t        *Trace
	parent   *Span
	name     string
	start    time.Time
	end      time.Time
	counters []counterPair
	children []*Span
}

type counterPair struct {
	name  string
	value int64
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// ContextWith returns a context carrying the trace. Spans started from the
// returned context (and its descendants) attach to t.
func ContextWith(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, t)
}

// FromContext returns the context's trace, or nil when tracing is off.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// StartSpan starts a child span of the context's current span (or the root
// when none is open yet) and returns a context carrying the new span. When
// the context has no trace — the default — it returns (ctx, nil) with no
// allocation, and the nil span's methods are all no-ops. End the span with
// Span.End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		return ctx, nil
	}
	t, _ := ctx.Value(traceKey).(*Trace)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	s := t.newSpan(parent, name)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey, s), s
}

// CurrentSpan returns the context's innermost open span, or nil. Use it to
// add counters to the enclosing stage without opening a new span.
func CurrentSpan(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// newSpan allocates and links a span. The first span of a trace becomes
// its root; later spans with no enclosing span attach to the root. Returns
// nil once the trace is full.
func (t *Trace) newSpan(parent *Span, name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= maxSpans {
		return nil
	}
	s := &Span{t: t, parent: parent, name: name, start: time.Now()}
	if t.root == nil {
		s.parent = nil
		t.root = s
	} else {
		if s.parent == nil {
			s.parent = t.root
		}
		s.parent.children = append(s.parent.children, s)
	}
	t.n++
	return s
}

// End marks the span finished. Nil-safe; ending twice keeps the first end.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.t.mu.Unlock()
}

// Count adds delta to the span's named counter, creating it at zero. The
// name must come from the fixed span taxonomy and the value must be an
// operation count or a size — never a data or noise value. Nil-safe.
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.counters {
		if s.counters[i].name == name {
			s.counters[i].value += delta
			return
		}
	}
	s.counters = append(s.counters, counterPair{name, delta})
}

func (s *Span) durationLocked() time.Duration {
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	return end.Sub(s.start)
}

// SpanInfo is the exported, immutable snapshot of one span, flattened in
// pre-order with its depth. It is the JSON shape served by the daemon's
// /v1/trace/{id} endpoint and the substrate of QueryStats stage listings.
type SpanInfo struct {
	Name     string           `json:"name"`
	Depth    int              `json:"depth"`
	StartUS  int64            `json:"start_us"` // offset from trace start
	DurUS    int64            `json:"duration_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Spans returns the trace's spans flattened in pre-order (root first,
// depth 0). Safe to call while the trace is still collecting.
func (t *Trace) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return appendSpans(nil, t.root, 0, t.start)
}

// Spans returns the span's subtree flattened in pre-order (the span itself
// at depth 0) — the shape QueryStats exposes when a query ran inside a
// larger trace (a daemon request) and wants only its own stages. Nil-safe.
func (s *Span) Spans() []SpanInfo {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return appendSpans(nil, s, 0, s.t.start)
}

// appendSpans flattens the subtree at s; the caller holds the trace lock.
func appendSpans(out []SpanInfo, s *Span, depth int, origin time.Time) []SpanInfo {
	if s == nil {
		return out
	}
	info := SpanInfo{
		Name:    s.name,
		Depth:   depth,
		StartUS: s.start.Sub(origin).Microseconds(),
		DurUS:   s.durationLocked().Microseconds(),
	}
	if len(s.counters) > 0 {
		info.Counters = make(map[string]int64, len(s.counters))
		for _, c := range s.counters {
			info.Counters[c.name] = c.value
		}
	}
	out = append(out, info)
	for _, c := range s.children {
		out = appendSpans(out, c, depth+1, origin)
	}
	return out
}

// Tree renders the span tree as indented text — one span per line with its
// duration and counters — for human consumption (onecluster -trace).
func (t *Trace) Tree() string {
	spans := t.Spans()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", t.ID())
	for _, s := range spans {
		fmt.Fprintf(&b, "%s%-24s %12s", strings.Repeat("  ", s.Depth+1), s.Name,
			time.Duration(s.DurUS)*time.Microsecond)
		if len(s.Counters) > 0 {
			keys := make([]string, 0, len(s.Counters))
			for k := range s.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, s.Counters[k])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
