package vec

import (
	"errors"
	"fmt"
	"math"
)

// Test helpers and oracles: no code outside the tests calls them.

// ApproxEqual reports whether ‖v−w‖∞ ≤ tol.
func (v Vector) ApproxEqual(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Normalize returns v/‖v‖. It returns an error for the zero vector.
func (v Vector) Normalize() (Vector, error) {
	n := v.Norm()
	if n == 0 {
		return nil, errors.New("vec: cannot normalize zero vector")
	}
	return v.Scale(1 / n), nil
}

// IsFinite reports whether all coordinates are finite (no NaN/Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// MatrixFromRows builds a matrix whose rows are copies of the given vectors.
func MatrixFromRows(rows []Vector) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("vec: matrix from zero rows")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			return nil, ErrDimMismatch
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// MulVec returns m·x (dimension m.Rows).
func (m *Matrix) MulVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
	return out
}

// FrameOf builds a frame from its arguments; it panics on dimension
// mismatch.
func FrameOf(vs ...Vector) *Frame {
	f, err := FrameFromVectors(vs)
	if err != nil {
		panic(err)
	}
	return f
}
