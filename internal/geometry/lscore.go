package geometry

import (
	"context"
	"fmt"
	"sort"
)

// ctxOrBackground normalizes the "nil means never cancel" contract the
// BallIndex implementations share.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// LStep is the score L(r, S) of Section 3.1 materialized as a step function
// of the radius r:
//
//	L(r, S) = (1/t) · max over t distinct points of Σ B̄_r(x_i),
//
// i.e. the average of the t largest ball counts around input points, with
// every count capped at t (B̄_r = min(B_r, t)). L is non-decreasing in r,
// has sensitivity 2 as a function of the dataset (Lemma 4.5), and — as a
// function of r — changes value only at pairwise distances of input points.
// Breaks[k] is the k-th breakpoint radius; Vals[k] is L on
// [Breaks[k], Breaks[k+1]). Breaks[0] == 0.
type LStep struct {
	T      int
	Breaks []float64
	Vals   []float64
}

// Eval returns L(r, S). Radii below zero evaluate to the paper's convention
// B_r = 0, i.e. L = 0.
func (l *LStep) Eval(r float64) float64 {
	if r < 0 {
		return 0
	}
	k := sort.SearchFloat64s(l.Breaks, r)
	// SearchFloat64s returns first index with Breaks[k] ≥ r; we want the
	// last breakpoint ≤ r.
	if k == len(l.Breaks) || l.Breaks[k] > r {
		k--
	}
	return l.Vals[k]
}

// topTFenwick maintains point counts capped at t and answers "sum of the t
// largest capped counts" in O(log t) per update/query. It is a Fenwick tree
// over the value range [1, t]: tree counts how many points currently hold
// each capped value, and sums their values.
type topTFenwick struct {
	t     int
	cnt   []int     // Fenwick over #points per value
	sum   []float64 // Fenwick over Σ value per value bucket
	value []int     // current capped value per point
}

func newTopTFenwick(n, t int) *topTFenwick {
	f := &topTFenwick{
		t:     t,
		cnt:   make([]int, t+1),
		sum:   make([]float64, t+1),
		value: make([]int, n),
	}
	for i := 0; i < n; i++ {
		f.value[i] = 1 // every point's ball contains itself
		f.add(min(1, t), 1)
	}
	return f
}

func (f *topTFenwick) add(v, sign int) {
	for i := v; i <= f.t; i += i & (-i) {
		f.cnt[i] += sign
		f.sum[i] += float64(sign * v)
	}
}

// prefix returns (#points, Σ values) over capped values ≤ v.
func (f *topTFenwick) prefix(v int) (int, float64) {
	c, s := 0, 0.0
	for i := v; i > 0; i -= i & (-i) {
		c += f.cnt[i]
		s += f.sum[i]
	}
	return c, s
}

// increment bumps point i's raw count by one (capped at t).
func (f *topTFenwick) increment(i int) {
	old := f.value[i]
	if old >= f.t {
		return
	}
	f.value[i] = old + 1
	f.add(old, -1)
	f.add(old+1, 1)
}

// topTSum returns the sum of the t largest capped values.
func (f *topTFenwick) topTSum() float64 {
	n := len(f.value)
	totalC, totalS := f.prefix(f.t)
	if totalC != n {
		panic("geometry: fenwick invariant broken")
	}
	if n <= f.t {
		// Fewer points than t never happens for valid inputs (t ≤ n), but
		// keep the sum well-defined.
		return totalS
	}
	// Find the smallest value v* such that #points with value > v* is < t;
	// then take all points above v* and fill the remainder at value v*.
	lo, hi := 0, f.t
	for lo < hi {
		mid := (lo + hi) / 2
		cLE, _ := f.prefix(mid)
		if n-cLE < f.t { // points strictly above mid fit within t
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cLE, sLE := f.prefix(lo)
	above := n - cLE
	sAbove := totalS - sLE
	return sAbove + float64(f.t-above)*float64(lo)
}

// BuildLStep constructs the L(·, S) step function by sweeping the pairwise
// distances in ascending order: at each distance d_ij, the balls around
// point i and point j each gain one member, and L changes only there.
// Runtime O(n² log n); memory O(n²). The Θ(n²) event build checks ctx once
// per source point, so cancellation aborts within one O(n) row.
func (ix *DistanceIndex) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	ctx = ctxOrBackground(ctx)
	n := ix.N()
	if t < 1 || t > n {
		return nil, fmt.Errorf("geometry: BuildLStep t=%d out of [1,%d]", t, n)
	}
	type event struct {
		d    float64
		i, j int
	}
	events := make([]event, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pi := ix.frame.Row(i)
		for j := i + 1; j < n; j++ {
			events = append(events, event{ix.frame.Dist(j, pi), i, j})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].d < events[b].d })
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fen := newTopTFenwick(n, t)
	l := &LStep{T: t}
	// State before any event: every ball holds exactly its own point.
	record := func(r float64) {
		v := fen.topTSum() / float64(t)
		if len(l.Vals) > 0 && l.Vals[len(l.Vals)-1] == v {
			return
		}
		l.Breaks = append(l.Breaks, r)
		l.Vals = append(l.Vals, v)
	}
	record(0)
	for k := 0; k < len(events); {
		d := events[k].d
		for ; k < len(events) && events[k].d == d; k++ {
			fen.increment(events[k].i)
			fen.increment(events[k].j)
		}
		if d == 0 {
			// Distance-zero events fold into the r = 0 value.
			l.Breaks = l.Breaks[:0]
			l.Vals = l.Vals[:0]
			record(0)
			continue
		}
		record(d)
	}
	return l, nil
}

// LValue computes L(r, S) directly (without the sweep); used to cross-check
// BuildLStep in tests and by one-off callers. O(n log n).
func (ix *DistanceIndex) LValue(r float64, t int) (float64, error) {
	n := ix.N()
	if t < 1 || t > n {
		return 0, fmt.Errorf("geometry: LValue t=%d out of [1,%d]", t, n)
	}
	if r < 0 {
		return 0, nil
	}
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		c := ix.CountWithin(i, r)
		if c > t {
			c = t
		}
		counts[i] = c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	sum := 0
	for i := 0; i < t; i++ {
		sum += counts[i]
	}
	return float64(sum) / float64(t), nil
}
