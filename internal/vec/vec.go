// Package vec provides the small dense linear-algebra substrate used by the
// private 1-cluster algorithms: Euclidean vectors, distances, dense matrices,
// and Gram–Schmidt orthonormalization for random rotations.
//
// Everything is plain float64 on top of the standard library. Vectors are
// []float64 wrapped in a named type so that methods read naturally at call
// sites (p.Dist(q), m.TMulVec(x)) while still allowing direct indexing.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a point or displacement in R^d.
type Vector []float64

// ErrDimMismatch is returned (or wrapped) by operations on operands of
// different dimensions.
var ErrDimMismatch = errors.New("vec: dimension mismatch")

// New returns a zero vector of dimension d.
func New(d int) Vector {
	if d < 0 {
		panic("vec: negative dimension")
	}
	return make(Vector, d)
}

// Of builds a vector from its arguments. Convenient in tests and examples.
func Of(xs ...float64) Vector {
	v := make(Vector, len(xs))
	copy(v, xs)
	return v
}

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w.
func (v Vector) Sub(w Vector) Vector {
	mustSameDim(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns c·v.
func (v Vector) Scale(c float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// AddInPlace sets v ← v + w and returns v.
func (v Vector) AddInPlace(w Vector) Vector {
	mustSameDim(v, w)
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// ScaleInPlace sets v ← c·v and returns v.
func (v Vector) ScaleInPlace(c float64) Vector {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Dot returns ⟨v, w⟩.
func (v Vector) Dot(w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.NormSq()) }

// NormSq returns the squared Euclidean norm of v.
func (v Vector) NormSq() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Dist returns the Euclidean distance ‖v − w‖₂.
func (v Vector) Dist(w Vector) float64 { return math.Sqrt(v.DistSq(w)) }

// DistSq returns the squared Euclidean distance between v and w.
func (v Vector) DistSq(w Vector) float64 {
	mustSameDim(v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Equal reports whether v and w are identical component-wise.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Clamp returns v with every coordinate clamped to [lo, hi].
func (v Vector) Clamp(lo, hi float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = math.Max(lo, math.Min(hi, x))
	}
	return out
}

// Mean returns the coordinate-wise mean of the given vectors.
// It returns an error when the slice is empty or dimensions differ.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vec: mean of empty set")
	}
	d := len(vs[0])
	out := make(Vector, d)
	for _, v := range vs {
		if len(v) != d {
			return nil, ErrDimMismatch
		}
		for i := range v {
			out[i] += v[i]
		}
	}
	inv := 1 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dimension mismatch %d vs %d", len(v), len(w)))
	}
}
