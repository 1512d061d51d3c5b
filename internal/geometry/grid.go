// Package geometry provides the discrete domain and ball-counting machinery
// of the 1-cluster problem: the quantized grid X^d (Definition 1.2 and
// Remark 3.3), the BallIndex abstraction with its two backends — the exact
// Θ(n²) DistanceIndex and the cell-grid CellIndex — and the
// capped-average score L(r, S) of Section 3.1, the sensitivity-2 surrogate
// for "the largest number of points in a ball of radius r", materialized as
// a step function over the radius grid so RecConcave can search it
// efficiently (Remark 4.4).
package geometry

import (
	"fmt"
	"math"

	"privcluster/internal/vec"
)

// Grid describes the discretized domain X^d: the d-dimensional unit cube
// quantized with step 1/(|X|−1), exactly as the paper fixes after
// Remark 3.3. Size is |X| (the number of grid values per axis).
type Grid struct {
	Size int64
	Dim  int
}

// NewGrid validates and returns a grid.
func NewGrid(size int64, dim int) (Grid, error) {
	if size < 2 {
		return Grid{}, fmt.Errorf("geometry: grid needs |X| ≥ 2, got %d", size)
	}
	if dim < 1 {
		return Grid{}, fmt.Errorf("geometry: dimension must be ≥ 1, got %d", dim)
	}
	return Grid{Size: size, Dim: dim}, nil
}

// Step returns the grid step 1/(|X|−1).
func (g Grid) Step() float64 { return 1 / float64(g.Size-1) }

// Quantize snaps v onto the grid: each coordinate is clamped to [0, 1] and
// rounded to the nearest multiple of Step. NaN clamps to 0 like any other
// out-of-domain value, so no NaN ever reaches a distance or a count.
func (g Grid) Quantize(v vec.Vector) vec.Vector {
	out := make(vec.Vector, len(v))
	g.QuantizeInto(out, v)
	return out
}

// QuantizeInto writes Quantize(v) into dst without allocating; dst may alias
// v. It is the allocation-free path Dataset.Open uses to quantize straight
// into a frame's rows.
func (g Grid) QuantizeInto(dst, v vec.Vector) {
	if v.Dim() != g.Dim {
		panic(fmt.Sprintf("geometry: Quantize dimension %d, want %d", v.Dim(), g.Dim))
	}
	if dst.Dim() != g.Dim {
		panic(fmt.Sprintf("geometry: QuantizeInto destination dimension %d, want %d", dst.Dim(), g.Dim))
	}
	s := g.Step()
	for i, x := range v {
		if !(x > 0) { // also NaN
			x = 0
		}
		x = math.Min(1, x)
		dst[i] = math.Round(x/s) * s
	}
}

// MaxDistance returns the diameter of the domain, √d (the unit cube's
// diagonal).
func (g Grid) MaxDistance() float64 { return math.Sqrt(float64(g.Dim)) }

// RadiusUnit returns the resolution of the radius grid GoodRadius searches:
// half the grid step, matching Algorithm 1's solution set
// {0, 1/(2|X|), 2/(2|X|), …, ⌈√d⌉} up to the Step/2 normalization.
func (g Grid) RadiusUnit() float64 { return g.Step() / 2 }

// RadiusGridSize returns the number of candidate radii: indices 0..M with
// M·RadiusUnit ≥ ⌈√d⌉ ≥ the domain diameter.
func (g Grid) RadiusGridSize() int64 {
	maxR := math.Ceil(g.MaxDistance())
	return int64(math.Ceil(maxR/g.RadiusUnit())) + 1
}

// RadiusFromIndex maps a radius-grid index to a radius in [0, ⌈√d⌉].
func (g Grid) RadiusFromIndex(k int64) float64 {
	return float64(k) * g.RadiusUnit()
}

// CountInBall returns |{x ∈ points : ‖x − c‖₂ ≤ r}|.
func CountInBall(points []vec.Vector, c vec.Vector, r float64) int {
	n := 0
	rsq := r * r
	for _, p := range points {
		if p.DistSq(c) <= rsq {
			n++
		}
	}
	return n
}

// Ball is a closed Euclidean ball.
type Ball struct {
	Center vec.Vector
	Radius float64
}

// Contains reports whether p lies in the ball.
func (b Ball) Contains(p vec.Vector) bool {
	return p.DistSq(b.Center) <= b.Radius*b.Radius
}

// Count returns the number of the given points inside the ball.
func (b Ball) Count(points []vec.Vector) int {
	return CountInBall(points, b.Center, b.Radius)
}
