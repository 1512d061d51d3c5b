package vec

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Frame is a flat, strided store of n points in R^d: one contiguous backing
// slice of n·d coordinates, row i occupying [i·d, (i+1)·d). It is the
// struct-of-arrays counterpart to []Vector — hot loops sweep one allocation
// instead of pointer-chasing n separate slices.
//
// A Frame is immutable after construction by convention: every index layer
// shares the same Frame and sweeps it concurrently, so callers must not
// mutate rows once the Frame has been handed to an index. Row returns a
// no-copy view for exactly that read-only sharing.
type Frame struct {
	n, d int
	data []float64
	box  sync.Once // computes lo, hi on the first Bounds call
	lo   []float64
	hi   []float64
}

// NewFrame returns an all-zero frame of n rows in R^d.
func NewFrame(n, d int) *Frame {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("vec: invalid frame shape %d×%d", n, d))
	}
	return &Frame{n: n, d: d, data: make([]float64, n*d)}
}

// FrameFromData wraps an existing flat coordinate slice as a frame without
// copying: data must hold a whole number of rows of stride d. The
// frame aliases data — the caller transfers ownership.
func FrameFromData(data []float64, d int) (*Frame, error) {
	if d <= 0 {
		return nil, fmt.Errorf("vec: frame stride must be positive, got %d", d)
	}
	if len(data)%d != 0 {
		return nil, fmt.Errorf("vec: %d coordinates do not divide into rows of stride %d: %w", len(data), d, ErrDimMismatch)
	}
	return &Frame{n: len(data) / d, d: d, data: data}, nil
}

// FrameFromVectors copies vs into a fresh frame. It returns an error
// when the slice is empty or the dimensions disagree.
func FrameFromVectors(vs []Vector) (*Frame, error) {
	if len(vs) == 0 {
		return nil, fmt.Errorf("vec: frame from empty vector slice")
	}
	d := len(vs[0])
	if d == 0 {
		return nil, fmt.Errorf("vec: frame rows must have positive dimension")
	}
	f := NewFrame(len(vs), d)
	for i, v := range vs {
		if len(v) != d {
			return nil, fmt.Errorf("vec: row %d has dimension %d, want %d: %w", i, len(v), d, ErrDimMismatch)
		}
		copy(f.data[i*d:(i+1)*d], v)
	}
	return f, nil
}

// N returns the number of rows.
func (f *Frame) N() int { return f.n }

// Dim returns the row dimension.
func (f *Frame) Dim() int { return f.d }

// Data returns the backing slice. It aliases the frame's storage; treat it as
// read-only once shared.
func (f *Frame) Data() []float64 { return f.data }

// Row returns row i as a no-copy Vector view aliasing the frame's backing
// slice: writes through the view are visible to every other reader, and the
// view stays valid for the frame's lifetime.
func (f *Frame) Row(i int) Vector {
	return Vector(f.data[i*f.d : (i+1)*f.d : (i+1)*f.d])
}

// At returns coordinate j of row i.
func (f *Frame) At(i, j int) float64 { return f.data[i*f.d+j] }

// SetRow copies v into row i. Production fills frames through their
// constructors; it stays exported as the fixture setter of other packages'
// tests.
func (f *Frame) SetRow(i int, v Vector) {
	if len(v) != f.d {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), f.d))
	}
	copy(f.data[i*f.d:(i+1)*f.d], v)
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	c := &Frame{n: f.n, d: f.d, data: make([]float64, len(f.data))}
	copy(c.data, f.data)
	return c
}

// Gather returns a new frame holding rows ids[0], ids[1], … in order.
func (f *Frame) Gather(ids []int32) *Frame {
	d := f.d
	g := NewFrame(len(ids), d)
	for k, id := range ids {
		copy(g.data[k*d:(k+1)*d], f.data[int(id)*d:(int(id)+1)*d])
	}
	return g
}

// DistSq returns the squared Euclidean distance between row i and q. The
// accumulation order matches Vector.DistSq coordinate for coordinate, so the
// sums are bit-identical.
func (f *Frame) DistSq(i int, q Vector) float64 {
	d := f.d
	if len(q) != d {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", d, len(q)))
	}
	var s float64
	row := f.data[i*d : (i+1)*d]
	for j, x := range row {
		dd := x - q[j]
		s += dd * dd
	}
	return s
}

// Dist returns the Euclidean distance between row i and q.
func (f *Frame) Dist(i int, q Vector) float64 { return math.Sqrt(f.DistSq(i, q)) }

// DistSqInto writes the squared distance from every row to q into out
// (len(out) must be f.N()) and returns out. The caller owns out — the kernel
// allocates nothing.
func (f *Frame) DistSqInto(q Vector, out []float64) []float64 {
	d := f.d
	if len(q) != d {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", d, len(q)))
	}
	if len(out) != f.n {
		panic(fmt.Sprintf("vec: out has length %d, want %d rows", len(out), f.n))
	}
	for i := 0; i < f.n; i++ {
		row := f.data[i*d : (i+1)*d]
		var s float64
		for j, x := range row {
			dd := x - q[j]
			s += dd * dd
		}
		out[i] = s
	}
	return out
}

// CountWithin returns |{i : ‖row_i − c‖ ≤ r}|, comparing squared distances
// against r² exactly like geometry's ball predicates.
func (f *Frame) CountWithin(c Vector, r float64) int {
	d := f.d
	if len(c) != d {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", d, len(c)))
	}
	rsq := r * r
	n := 0
	for i := 0; i < f.n; i++ {
		row := f.data[i*d : (i+1)*d]
		var s float64
		for j, x := range row {
			dd := x - c[j]
			s += dd * dd
		}
		if s <= rsq {
			n++
		}
	}
	return n
}

// Nearest returns the index of the center closest to row i and the squared
// distance to it, breaking ties toward the lowest center index (strict <
// comparison — the k-means assignment rule).
func (f *Frame) Nearest(i int, centers []Vector) (best int, bestSq float64) {
	bestSq = math.Inf(1)
	for c, ctr := range centers {
		if s := f.DistSq(i, ctr); s < bestSq {
			best, bestSq = c, s
		}
	}
	return best, bestSq
}

// Bounds returns the per-axis bounding box of the frame's rows (nil for no
// rows). The first call scans the rows once; since a frame is immutable
// once shared, every call returns the same cached slices, which callers
// must treat as read-only: geometry's growBox widens a clone on append.
func (f *Frame) Bounds() (lo, hi []float64) {
	f.box.Do(func() {
		if f.n == 0 {
			return
		}
		f.lo, f.hi = slices.Clone(f.data[:f.d]), slices.Clone(f.data[:f.d])
		for i := f.d; i < len(f.data); i += f.d {
			for a, x := range f.data[i : i+f.d] {
				if x < f.lo[a] {
					f.lo[a] = x
				}
				if x > f.hi[a] {
					f.hi[a] = x
				}
			}
		}
	})
	return f.lo, f.hi
}
