package baselines

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"privcluster/internal/noise"
)

// TreeHistParams configures the 1-D threshold-query-release baseline.
type TreeHistParams struct {
	T       int
	Epsilon float64
	Beta    float64
	// GridSize is |X|; values in [0,1] are mapped onto ⌈log₂|X|⌉+1 dyadic
	// levels.
	GridSize int64
}

// TreeHistogram1D solves the d = 1 cluster problem through query release
// for threshold functions (Table 1 row 3), implemented with the classic
// dyadic-decomposition ("binary tree") mechanism: each value contributes to
// one node per level, the per-level budget is ε/levels, so every node count
// is released with Lap(levels/ε) noise; afterwards any interval count — and
// hence a smallest interval holding ≈ t points — is answerable from the
// released counts alone (pure post-processing).
//
// The released interval has radius ≤ 4·r_opt (an interval of length L is
// covered by one dyadic node of length ≤ 2L, or by two adjacent nodes of
// that length when it straddles a boundary) and cluster-size loss
// Θ((log|X|)^{1.5}/ε) — polylogarithmic in |X|, versus the paper's
// 2^{O(log*|X|)}. Experiment E5 plots exactly this contrast.
//
// The scan inspects only dyadic nodes containing data; a node the data
// never touches cannot be part of the smallest heavy interval (its noisy
// count would have to beat the release margin on noise alone).
func TreeHistogram1D(rng *rand.Rand, values []float64, prm TreeHistParams) (Interval1D, error) {
	n := len(values)
	if prm.T < 1 || prm.T > n {
		return Interval1D{}, fmt.Errorf("baselines: t=%d out of [1, %d]", prm.T, n)
	}
	if prm.Epsilon <= 0 {
		return Interval1D{}, fmt.Errorf("baselines: epsilon must be positive")
	}
	if prm.GridSize < 2 {
		return Interval1D{}, fmt.Errorf("baselines: |X| must be ≥ 2")
	}
	for i, v := range values {
		if v < 0 || v > 1 {
			return Interval1D{}, fmt.Errorf("baselines: value %d = %v outside [0,1]", i, v)
		}
	}
	levels := int(math.Ceil(math.Log2(float64(prm.GridSize)))) + 1
	lam := float64(levels) / prm.Epsilon // per-node Laplace scale

	// Lazily materialize the noisy counts of data-supported nodes, from the
	// finest level (0: |X| leaves) to the root.
	type nodeKey struct {
		level int
		idx   int64
	}
	counts := make(map[nodeKey]int)
	for lv := 0; lv < levels; lv++ {
		cells := int64(1) << uint(levels-1-lv)
		for _, v := range values {
			idx := int64(v * float64(cells))
			if idx >= cells {
				idx = cells - 1
			}
			counts[nodeKey{lv, idx}]++
		}
	}
	// Noise is drawn in sorted node order: drawing while ranging over the
	// map would tie the draws to Go's randomized iteration order and make
	// seeded runs irreproducible.
	nodes := make([]nodeKey, 0, len(counts))
	for nd := range counts {
		nodes = append(nodes, nd)
	}
	slices.SortFunc(nodes, func(a, b nodeKey) int {
		if c := cmp.Compare(a.level, b.level); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	noisyCounts := make(map[nodeKey]float64, len(counts))
	for _, nd := range nodes {
		noisyCounts[nd] = float64(counts[nd]) + noise.Laplace(rng, lam)
	}

	// Release margin: per-node noise tail with a union bound over the
	// inspected nodes.
	margin := lam * math.Log(2*float64(len(counts)+1)/prm.Beta)

	// Scan bottom-up and return the smallest structure whose noisy count
	// clears t − margin: first single nodes at this level, then adjacent
	// non-sibling pairs (siblings merge into their parent one level up).
	for lv := 0; lv < levels; lv++ {
		cells := int64(1) << uint(levels-1-lv)
		width := 1 / float64(cells)

		// Both scans walk the sorted node list: the pair scan returns the
		// first qualifying pair, so walking the map directly would make
		// the released interval depend on Go's randomized iteration order.
		bestIdx, bestVal := int64(-1), math.Inf(-1)
		for _, nd := range nodes {
			if v := noisyCounts[nd]; nd.level == lv && v > bestVal {
				bestVal, bestIdx = v, nd.idx
			}
		}
		if bestIdx >= 0 && bestVal >= float64(prm.T)-margin {
			return Interval1D{Center: (float64(bestIdx) + 0.5) * width, Radius: width / 2}, nil
		}
		for _, nd := range nodes {
			if nd.level != lv || nd.idx%2 == 0 {
				continue
			}
			if w, ok := noisyCounts[nodeKey{lv, nd.idx + 1}]; ok {
				// Two nodes are summed, so the noise doubles.
				if noisyCounts[nd]+w >= float64(prm.T)-2*margin {
					return Interval1D{Center: (float64(nd.idx) + 1) * width, Radius: width}, nil
				}
			}
		}
	}
	return Interval1D{}, fmt.Errorf("baselines: no interval reached t−%.1f (t=%d too small for the noise level?)", margin, prm.T)
}

// TreeHistLossBound returns the Θ((log|X|)^{1.5}/ε) cluster-size loss the
// mechanism's release threshold implies — the quantity E5 plots against the
// paper's 2^{O(log*|X|)}. An accepted node's true count is within one
// release margin plus one noise tail of t, hence the factor 2.
func TreeHistLossBound(gridSize int64, epsilon, beta float64, n int) float64 {
	levels := math.Ceil(math.Log2(float64(gridSize))) + 1
	return 2 * levels / epsilon * math.Log(2*levels*float64(n)/beta)
}
