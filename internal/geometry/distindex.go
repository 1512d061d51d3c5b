package geometry

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"privcluster/internal/vec"
)

// DistanceIndex precomputes, for every input point, the sorted list of
// distances to all input points (including the zero distance to itself).
// It supports O(log n) ball-count queries around input points, the trivial
// 2-approximation to the smallest enclosing ball ("known fact 3" of
// Section 3), and the construction of the L(r, S) step function GoodRadius
// searches.
//
// Memory is Θ(n²) float64s in one flat backing allocation (sorted[i] is a
// subslice of it); callers should keep n in the low thousands.
type DistanceIndex struct {
	frame   *vec.Frame
	sorted  [][]float64 // sorted[i] = ascending distances from point i; rows of backing
	backing []float64   // one n×n allocation holding every row
}

// NewDistanceIndexFrame builds the index directly over a Frame without
// copying the coordinates. The index aliases the frame: the caller must not
// mutate rows afterwards.
func NewDistanceIndexFrame(f *vec.Frame) (*DistanceIndex, error) {
	if f == nil || f.N() == 0 {
		return nil, fmt.Errorf("geometry: distance index over empty point set")
	}
	n := f.N()
	idx := &DistanceIndex{
		frame:   f,
		sorted:  make([][]float64, n),
		backing: make([]float64, n*n),
	}
	for i := range idx.sorted {
		idx.sorted[i] = idx.backing[i*n : (i+1)*n : (i+1)*n]
	}
	// Row construction is embarrassingly parallel and dominates the
	// pipeline's preprocessing cost (Θ(n²·d) distances + Θ(n²·log n) sort),
	// so fan it out across the cores. Each worker writes disjoint rows of
	// the shared backing.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				row := idx.sorted[i]
				f.DistSqInto(f.Row(i), row)
				for j, s := range row {
					row[j] = math.Sqrt(s)
				}
				sort.Float64s(row)
			}
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return idx, nil
}

// N returns the number of indexed points.
func (ix *DistanceIndex) N() int { return ix.frame.N() }

// Frame returns the indexed point store (not a copy).
func (ix *DistanceIndex) Frame() *vec.Frame { return ix.frame }

// CountWithin returns B_r(x_i): the number of input points within distance r
// of point i (always ≥ 1, the point itself).
func (ix *DistanceIndex) CountWithin(i int, r float64) int {
	row := ix.sorted[i]
	return sort.Search(len(row), func(k int) bool { return row[k] > r })
}

// radiusForCount returns the t-th smallest distance from point i, for hot
// loops that have already validated t against [1, n] once.
func (ix *DistanceIndex) radiusForCount(i, t int) float64 { return ix.sorted[i][t-1] }

// TwoApprox returns the best ball centered at an input point containing at
// least t input points: its radius is at most 2·r_opt ("known fact 3" of
// Section 3 — a ball of radius 2·r_opt around any point of the optimal ball
// covers the whole optimal ball). It returns the center index and radius.
// t is validated once here, before the hot loop.
func (ix *DistanceIndex) TwoApprox(t int) (center int, radius float64, err error) {
	n := ix.N()
	if t < 1 || t > n {
		return 0, 0, fmt.Errorf("geometry: TwoApprox t=%d out of [1,%d]", t, n)
	}
	best, bestR := 0, ix.radiusForCount(0, t)
	for i := 1; i < n; i++ {
		if r := ix.radiusForCount(i, t); r < bestR {
			best, bestR = i, r
		}
	}
	return best, bestR, nil
}

// MaxCountWithin returns max_i B_r(x_i), the largest input-centered ball
// count at radius r (sensitivity Ω(t) in general — the motivation for the
// capped average L; see Section 3.1).
func (ix *DistanceIndex) MaxCountWithin(r float64) int {
	best := 0
	for i := range ix.sorted {
		if c := ix.CountWithin(i, r); c > best {
			best = c
		}
	}
	return best
}
