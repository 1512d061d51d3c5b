// Package recconcave implements Algorithm RecConcave of Beimel, Nissim and
// Stemmer (APPROX-RANDOM 2013), the private solver for quasi-concave promise
// problems stated as Theorem 4.3 in "Locating a Small Cluster Privately".
//
// Given a finite totally ordered solution set F (represented as indices
// 0..N−1), a sensitivity-1 quality function Q that is quasi-concave over F,
// and a quality promise p with max_f Q(f) ≥ p, RecConcave privately returns
// a solution f with Q(f) ≥ (1−α)p, paying only 2^{O(log* N)}·(1/ε)·log(1/βδ)
// in required promise — instead of the log N an exponential-mechanism binary
// search would cost. This is the source of the paper's 2^{O(log*|X|)}
// dependence.
//
// The solution domain may be astronomically large (GoodRadius uses the
// radius grid of size ≈ 2|X|√d, with |X| up to 2^60), so Q is supplied as an
// explicit step function: a sorted list of breakpoints and piece values.
// This is exactly the efficiency condition of Remark 4.4 — for GoodRadius
// the pieces are delimited by the O(n²) pairwise distances.
package recconcave

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// StepFn is a piecewise-constant function over the integer domain [0, N).
// Piece i covers [breaks[i], breaks[i+1]) (with an implicit final boundary
// at N) and has value vals[i]. breaks[0] is always 0.
type StepFn struct {
	n      int64
	breaks []int64
	vals   []float64
}

// NewStepFn validates and builds a step function over [0, n).
// breaks must be strictly increasing, start at 0 and stay below n;
// len(vals) == len(breaks).
func NewStepFn(n int64, breaks []int64, vals []float64) (*StepFn, error) {
	if n <= 0 {
		return nil, fmt.Errorf("recconcave: domain size must be positive, got %d", n)
	}
	if len(breaks) == 0 || len(breaks) != len(vals) {
		return nil, fmt.Errorf("recconcave: need matching non-empty breaks/vals, got %d/%d", len(breaks), len(vals))
	}
	if breaks[0] != 0 {
		return nil, fmt.Errorf("recconcave: first break must be 0, got %d", breaks[0])
	}
	for i := 1; i < len(breaks); i++ {
		if breaks[i] <= breaks[i-1] {
			return nil, fmt.Errorf("recconcave: breaks not strictly increasing at %d", i)
		}
	}
	if breaks[len(breaks)-1] >= n {
		return nil, fmt.Errorf("recconcave: break %d outside domain [0,%d)", breaks[len(breaks)-1], n)
	}
	for _, v := range vals {
		if math.IsNaN(v) {
			return nil, errors.New("recconcave: NaN piece value")
		}
	}
	return &StepFn{n: n, breaks: breaks, vals: vals}, nil
}

// FromValues builds a step function from one explicit value per domain point
// (convenient for small domains such as the recursion's scale domain).
func FromValues(vals []float64) (*StepFn, error) {
	if len(vals) == 0 {
		return nil, errors.New("recconcave: FromValues with no values")
	}
	breaks := make([]int64, 0, len(vals))
	compact := make([]float64, 0, len(vals))
	for i, v := range vals {
		if i == 0 || v != compact[len(compact)-1] {
			breaks = append(breaks, int64(i))
			compact = append(compact, v)
		}
	}
	return NewStepFn(int64(len(vals)), breaks, compact)
}

// N returns the domain size.
func (s *StepFn) N() int64 { return s.n }

// pieceEnd returns the exclusive end of piece i.
func (s *StepFn) pieceEnd(i int) int64 {
	if i+1 < len(s.breaks) {
		return s.breaks[i+1]
	}
	return s.n
}

// Eval returns Q(f). It panics for f outside [0, N) (programming error).
func (s *StepFn) Eval(f int64) float64 {
	if f < 0 || f >= s.n {
		panic(fmt.Sprintf("recconcave: Eval(%d) outside [0,%d)", f, s.n))
	}
	// Largest break ≤ f.
	i := sort.Search(len(s.breaks), func(i int) bool { return s.breaks[i] > f }) - 1
	return s.vals[i]
}

// Max returns the maximum piece value.
func (s *StepFn) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum piece value.
func (s *StepFn) Min() float64 {
	m := math.Inf(1)
	for _, v := range s.vals {
		if v < m {
			m = v
		}
	}
	return m
}

// WindowMinMax returns L(w) = max over windows [x, x+w) ⊆ [0, N) of
// (min over the window of Q), i.e. the best guaranteed quality achievable by
// an interval of length w. For w ≥ N it returns the global minimum, and it
// panics for w ≤ 0.
//
// It runs in O(pieces) with a monotone deque over piece values. A window
// can slide right until its end meets a piece boundary without taking in a
// new piece, so its minimum never falls on the way: it suffices to evaluate
// the windows that end at a piece boundary, and those arrive in order as
// the scan adds one piece at a time. The deque comes from a pool, so a call
// allocates nothing once the pool is warm.
func (s *StepFn) WindowMinMax(w int64) float64 {
	if w <= 0 {
		panic("recconcave: WindowMinMax with non-positive width")
	}
	if w >= s.n {
		return s.Min()
	}
	buf := dequePool.Get().(*[]int)
	defer dequePool.Put(buf)
	if cap(*buf) < len(s.vals) {
		*buf = make([]int, len(s.vals))
	}
	// deque[head:tail] holds piece indices with increasing values; every
	// piece enters once, so tail never passes len(s.vals).
	deque := (*buf)[:len(s.vals)]
	head, tail := 0, 0
	best := math.Inf(-1)
	for i, v := range s.vals {
		for tail > head && s.vals[deque[tail-1]] >= v {
			tail--
		}
		deque[tail] = i
		tail++
		x := s.pieceEnd(i) - w // the window [x, x+w) ends where piece i does
		if x < 0 {
			continue
		}
		for s.pieceEnd(deque[head]) <= x {
			head++
		}
		if m := s.vals[deque[head]]; m > best {
			best = m
		}
	}
	return best
}

// dequePool recycles WindowMinMax's deque buffers: RecConcave's scale
// search calls it once per window width.
var dequePool = sync.Pool{New: func() any { return new([]int) }}

// BlockMin returns min over the aligned block [k·w, min((k+1)·w, N)) of Q.
// It panics when the block does not intersect the domain.
func (s *StepFn) BlockMin(k, w int64) float64 {
	lo := k * w
	hi := lo + w
	if hi > s.n {
		hi = s.n
	}
	if w <= 0 || lo < 0 || lo >= s.n {
		panic(fmt.Sprintf("recconcave: BlockMin(%d,%d) outside domain of size %d", k, w, s.n))
	}
	i := sort.Search(len(s.breaks), func(i int) bool { return s.breaks[i] > lo }) - 1
	minV := math.Inf(1)
	for ; i < len(s.breaks) && s.breaks[i] < hi; i++ {
		if s.vals[i] < minV {
			minV = s.vals[i]
		}
	}
	return minV
}

// LevelRegion returns the maximal contiguous region [lo, hi) on which
// Q > theta, assuming Q is quasi-concave (so the super-level set is an
// interval). ok is false when no point exceeds theta.
func (s *StepFn) LevelRegion(theta float64) (lo, hi int64, ok bool) {
	first, last := -1, -1
	for i, v := range s.vals {
		if v > theta {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return 0, 0, false
	}
	return s.breaks[first], s.pieceEnd(last), true
}

// IsQuasiConcave reports whether the piece values rise to a peak and then
// fall (the defining property Definition 4.1 requires); O(pieces).
//
// No production code calls it. It stays exported as the Lemma 4.6 oracle
// of internal/core's TestRadiusQualityQuasiConcave, which a helper in this
// package's tests could not serve.
func (s *StepFn) IsQuasiConcave() bool {
	// Find a peak index, then verify non-decreasing before and
	// non-increasing after.
	peak := 0
	for i, v := range s.vals {
		if v > s.vals[peak] {
			peak = i
		}
	}
	for i := 1; i <= peak; i++ {
		if s.vals[i] < s.vals[i-1] {
			return false
		}
	}
	for i := peak + 1; i < len(s.vals); i++ {
		if s.vals[i] > s.vals[i-1] {
			return false
		}
	}
	return true
}
