package vec

import (
	"fmt"
	"sync"
)

// MutableFrame is the append-only extension seam of Frame: a growable flat
// coordinate buffer whose prefixes are handed out as ordinary immutable
// Frame views. It is how the streaming-ingestion layers grow a point set
// without touching the Frame contract every kernel and index relies on —
// a view is a real *Frame (no-copy Row, DistSqInto, the works), frozen at
// the row count it was taken with.
//
// Concurrency model: all mutation (Append) must be serialized externally —
// the owning index guards it with its own mutex — while N, View, and Slice
// may run concurrently with appends (an internal lock covers the slice
// header they race on). The handed-out views need no synchronization at
// all: a view's backing slice is capped at its row count, appends only
// ever write at offsets at or beyond every previously-taken view's length,
// and a growth reallocation leaves the old array (which the views alias)
// untouched. A MutableFrame never shrinks; deletions are modeled upstream
// by compacting into a fresh MutableFrame while old views keep the old
// storage alive.
type MutableFrame struct {
	d    int
	mu   sync.RWMutex // guards the data slice header, not its array
	data []float64
}

// NewMutableFrame wraps base's storage as the frozen prefix of a growable
// buffer. Ownership of the backing slice transfers: the caller must not
// mutate base's rows afterwards (reading stays valid — base itself is the
// epoch-0 view).
func NewMutableFrame(base *Frame) (*MutableFrame, error) {
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("vec: mutable frame over an empty base")
	}
	return &MutableFrame{d: base.Dim(), data: base.Data()}, nil
}

// N returns the current number of rows.
func (m *MutableFrame) N() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data) / m.d
}

// Dim returns the row dimension.
func (m *MutableFrame) Dim() int { return m.d }

// Append copies rows onto the end of the buffer. rows must be a frame of
// matching dimension; a nil or empty frame appends nothing.
func (m *MutableFrame) Append(rows *Frame) error {
	if rows == nil || rows.N() == 0 {
		return nil
	}
	if rows.Dim() != m.d {
		return fmt.Errorf("vec: append of dimension %d onto a %d-dimensional frame: %w", rows.Dim(), m.d, ErrDimMismatch)
	}
	m.mu.Lock()
	m.data = append(m.data, rows.Data()...)
	m.mu.Unlock()
	return nil
}

// View returns the first n rows as an immutable Frame without copying. The
// view's backing slice is capped at exactly n rows, so later appends —
// even ones that fit the buffer's spare capacity — can never leak into it.
func (m *MutableFrame) View(n int) *Frame {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if n < 0 || n*m.d > len(m.data) {
		panic(fmt.Sprintf("vec: view of %d rows from a %d-row mutable frame", n, len(m.data)/m.d))
	}
	return &Frame{n: n, d: m.d, data: m.data[: n*m.d : n*m.d]}
}

// Slice returns rows [lo, hi) as an immutable Frame view (no copy, capped
// like View) — how an epoch's delta rows are exposed to a delta index.
func (m *MutableFrame) Slice(lo, hi int) *Frame {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if lo < 0 || hi < lo || hi*m.d > len(m.data) {
		panic(fmt.Sprintf("vec: slice [%d, %d) of a %d-row mutable frame", lo, hi, len(m.data)/m.d))
	}
	return &Frame{n: hi - lo, d: m.d, data: m.data[lo*m.d : hi*m.d : hi*m.d]}
}
