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
// rounded to the nearest multiple of Step.
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
		x = math.Max(0, math.Min(1, x))
		dst[i] = math.Round(x/s) * s
	}
}

// OnGrid reports whether v lies (numerically) on the grid.
func (g Grid) OnGrid(v vec.Vector) bool {
	if v.Dim() != g.Dim {
		return false
	}
	s := g.Step()
	for _, x := range v {
		if x < -1e-12 || x > 1+1e-12 {
			return false
		}
		k := math.Round(x / s)
		if math.Abs(x-k*s) > 1e-9*math.Max(1, math.Abs(x)) {
			return false
		}
	}
	return true
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

// IndexFromRadius maps a radius to the smallest grid index whose radius is
// ≥ r (so the grid radius never under-covers), clamped to the grid.
func (g Grid) IndexFromRadius(r float64) int64 {
	if r <= 0 {
		return 0
	}
	m := g.RadiusGridSize() - 1
	kf := math.Ceil(r / g.RadiusUnit())
	if kf >= float64(m) {
		return m
	}
	return int64(kf)
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

// Filter splits points into those inside and outside the ball.
func (b Ball) Filter(points []vec.Vector) (inside, outside []vec.Vector) {
	for _, p := range points {
		if b.Contains(p) {
			inside = append(inside, p)
		} else {
			outside = append(outside, p)
		}
	}
	return inside, outside
}
