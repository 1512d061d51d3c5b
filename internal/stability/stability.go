// Package stability implements the stability-based "choosing" technique of
// Theorem 2.5 in the paper (from Beimel–Nissim–Stemmer '13 and Vadhan's
// survey): given a dataset S over a universe U and a partition P of U,
// privately return a set in P containing approximately the maximum number
// of elements of S.
//
// The key point — and the reason the technique exists — is that the
// guarantee does not degrade with |P|: the partition may be infinite (e.g.
// all boxes of a randomly shifted grid over R^k), because only bins that
// actually contain data can ever be output, and (ε, δ)-DP absorbs the small
// probability of distinguishing via a bin with a single element.
//
// The implementation is the standard (ε, δ)-DP stability histogram:
//
//	add Lap(2/ε) to the count of every non-empty bin,
//	release the argmax bin if its noisy count exceeds the threshold
//	2 + (2/ε)·ln(2/δ); otherwise release ⊥.
//
// Utility (matching Theorem 2.5's form): if the max bin count T satisfies
// T ≥ (2/ε)·log(4n/βδ) then with probability ≥ 1−β a bin with count
// ≥ T − (4/ε)·log(2n/β) is returned, where n bounds the number of non-empty
// bins (at most the dataset size).
package stability

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"privcluster/internal/noise"
)

// Result is the outcome of a Choose call.
type Result[K cmp.Ordered] struct {
	Key        K       // the selected bin (zero value when Bottom)
	Bottom     bool    // true when no bin passed the stability threshold
	NoisyCount float64 // the winning bin's noisy count (diagnostic)
}

// Params configures the choosing mechanism.
type Params struct {
	Epsilon float64
	Delta   float64
}

// Threshold returns the release threshold 2 + (2/ε)·ln(2/δ) used by Choose.
// Exported so utility analyses and tests can reason about it.
func (p Params) Threshold() float64 {
	return 2 + (2/p.Epsilon)*math.Log(2/p.Delta)
}

func (p Params) validate() error {
	if p.Epsilon <= 0 || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("stability: epsilon must be positive, got %v", p.Epsilon)
	}
	if p.Delta <= 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("stability: delta must be in (0,1), got %v", p.Delta)
	}
	return nil
}

// Choose privately selects a bin with approximately maximal count from the
// given histogram (bin key → number of dataset elements in the bin). Bins
// with non-positive counts are ignored — callers build the map only from
// data actually present, which is what keeps the mechanism independent of
// the partition size.
//
// Choose is (ε, δ)-differentially private when the histogram is built by
// partitioning the dataset (each element contributes to exactly one bin).
//
// Bins are visited in sorted key order: noise is drawn during the scan, so
// iterating the map directly would couple the draws to Go's randomized map
// order and make seeded runs irreproducible (keys are ordered for exactly
// this reason — the DP analysis is order-independent).
func Choose[K cmp.Ordered](rng *rand.Rand, hist map[K]int, p Params) (Result[K], error) {
	keys := make([]K, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	counts := make([]int, len(keys))
	for i, k := range keys {
		counts[i] = hist[k]
	}
	// One shared noise-consuming loop: delegating keeps the rand stream
	// bit-identical between the map and positional forms, which GoodCenter's
	// cross-backend seeded reproducibility depends on.
	res, err := ChooseIndexed(rng, counts, p)
	if err != nil || res.Bottom {
		return Result[K]{Bottom: true}, err
	}
	return Result[K]{Key: keys[res.Key], NoisyCount: res.NoisyCount}, nil
}

// ChooseIndexed is Choose over a histogram presented positionally: counts[i]
// is the number of dataset elements in bin i, and the returned Result's Key
// is the selected position. Non-positive counts are skipped, exactly like
// Choose skips them.
//
// The privacy analysis is identical to Choose (iid noise makes it
// order-independent), but the caller fixes the enumeration order. That is
// the point: GoodCenter's partition engine enumerates its boxes in a
// canonical geometric order (sorted cell coordinates), so seeded runs stay
// bit-identical no matter how the box keys are represented internally
// (bit-packed or hashed).
func ChooseIndexed(rng *rand.Rand, counts []int, p Params) (Result[int], error) {
	if err := p.validate(); err != nil {
		return Result[int]{}, err
	}
	thresh := p.Threshold()
	var best Result[int]
	best.Bottom = true
	bestVal := math.Inf(-1)
	for i, c := range counts {
		if c <= 0 {
			continue
		}
		v := float64(c) + noise.Laplace(rng, 2/p.Epsilon)
		if v > bestVal {
			bestVal = v
			best.Key = i
			best.NoisyCount = v
		}
	}
	if math.IsInf(bestVal, -1) || bestVal < thresh {
		return Result[int]{Bottom: true}, nil
	}
	best.Bottom = false
	return best, nil
}

// Histogram builds a bin-count map from data via a bucketing function, in
// the form Choose takes.
func Histogram[T any, K comparable](data []T, bucket func(T) K) map[K]int {
	h := make(map[K]int, len(data))
	for _, x := range data {
		h[bucket(x)]++
	}
	return h
}
