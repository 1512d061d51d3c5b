// Package jl implements the geometric random projections GoodCenter relies
// on: the Johnson–Lindenstrauss transform (Lemma 4.10 of the paper) used to
// reduce R^d to R^k with k = O(log n) while preserving pairwise distances up
// to a constant, and random orthonormal bases (Lemma 4.9) used to rotate R^d
// so that a bounded-diameter set projects into short intervals on every
// axis.
package jl

import (
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/vec"
)

// Transform is a linear map f(x) = (1/√k)·A·x with A a k×d matrix of i.i.d.
// standard Gaussians (Lemma 4.10). When k ≥ d the transform is replaced by
// the identity: distances are then preserved exactly and nothing is gained
// by projecting up.
type Transform struct {
	a      *vec.Matrix // nil when identity
	inDim  int
	outDim int
}

// NewTransform draws a JL transform from R^d to R^k. If k ≥ d it returns the
// identity embedding (OutDim == d).
func NewTransform(rng *rand.Rand, d, k int) (*Transform, error) {
	if d <= 0 || k <= 0 {
		return nil, fmt.Errorf("jl: dimensions must be positive, got d=%d k=%d", d, k)
	}
	if k >= d {
		return &Transform{inDim: d, outDim: d}, nil
	}
	a := vec.NewMatrix(k, d)
	scale := 1 / math.Sqrt(float64(k))
	for i := 0; i < k; i++ {
		for j := 0; j < d; j++ {
			a.Set(i, j, rng.NormFloat64()*scale)
		}
	}
	return &Transform{a: a, inDim: d, outDim: k}, nil
}

// OutDim returns the output dimension (k, or d for the identity case).
func (t *Transform) OutDim() int { return t.outDim }

// ApplyFrame maps every row of a frame, returning the projections as a
// frame. The identity transform returns f itself — a no-copy alias, safe
// because frames are read-only once shared — so the common k ≥ d case costs
// zero allocations. Otherwise the projections are written into one fresh
// frame.
func (t *Transform) ApplyFrame(f *vec.Frame) *vec.Frame {
	if f.Dim() != t.inDim {
		panic(fmt.Sprintf("jl: ApplyFrame dimension %d, want %d", f.Dim(), t.inDim))
	}
	if t.a == nil {
		return f
	}
	out := vec.NewFrame(f.N(), t.outDim)
	for i := 0; i < f.N(); i++ {
		t.a.MulVecInto(out.Row(i), f.Row(i))
	}
	return out
}

// TargetDim returns the projection dimension that makes the distortion bound
// of Lemma 4.10 hold for n points with parameter η and failure probability
// β: the smallest k with 2n²·exp(−η²k/8) ≤ β, i.e. k = ⌈(8/η²)·ln(2n²/β)⌉.
// GoodCenter uses η = 1/2 (distances preserved within a factor 1±1/2 on
// squared norms), for which this is Θ(log(n/β)) — the source of the
// O(√log n) factor in the final radius.
func TargetDim(n int, eta, beta float64) int {
	if n < 2 {
		n = 2
	}
	if eta <= 0 || eta > 1 || beta <= 0 || beta >= 1 {
		panic("jl: TargetDim parameters out of range")
	}
	k := 8 / (eta * eta) * math.Log(2*float64(n)*float64(n)/beta)
	return int(math.Ceil(k))
}

// RandomBasis returns a uniformly random orthonormal basis of R^d as a d×d
// matrix whose rows are the basis vectors (Gaussian matrix followed by
// Gram–Schmidt). Used by GoodCenter Step 8.
func RandomBasis(rng *rand.Rand, d int) (*vec.Matrix, error) {
	if d <= 0 {
		return nil, fmt.Errorf("jl: basis dimension must be positive, got %d", d)
	}
	for attempt := 0; attempt < 4; attempt++ {
		m := vec.NewMatrix(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		if err := m.GramSchmidt(); err == nil {
			return m, nil
		}
	}
	// A Gaussian matrix is singular with probability 0; four failures in a
	// row indicate a broken RNG.
	return nil, fmt.Errorf("jl: could not draw a non-singular Gaussian matrix for d=%d", d)
}
