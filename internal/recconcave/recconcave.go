package recconcave

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/dp"
	"privcluster/internal/noise"
)

// Options configures a RecConcave invocation.
type Options struct {
	// Alpha is the approximation parameter: the returned solution satisfies
	// Q(f) ≥ (1−Alpha)·promise. Must lie in (0, 1). GoodRadius uses 1/2.
	Alpha float64
	// Beta is the failure probability target.
	Beta float64
	// Privacy is the total (ε, δ) budget for the entire recursion.
	Privacy dp.Params
	// Ctx, when non-nil, is checked at every recursion level: a cancelled
	// context aborts the solve with ctx.Err(). Noise drawn before the
	// cancellation point has been consumed from the rng stream, so callers
	// should treat an aborted solve as having spent its budget.
	Ctx context.Context
	// BaseSize is the domain size at which the recursion bottoms out into a
	// direct exponential-mechanism selection. Defaults to 64, which makes
	// the recursion depth exactly 2 for every domain representable in an
	// int64 (the scale domain ⌈log₂N⌉+1 ≤ 64 is then a base case); smaller
	// values force deeper recursions and exercise the general log* chain.
	BaseSize int64
	// MaxCandidateBlocks caps how many candidate blocks the per-level
	// choosing step enumerates. At a correctly selected scale the candidate
	// run is provably short (a handful of blocks); the cap only guards
	// against pathological non-quasi-concave inputs. Defaults to 4096.
	MaxCandidateBlocks int
}

// DefaultBaseSize is the default recursion base size (see Options.BaseSize).
// Exported so feasibility analyses (core.Params.MinFeasibleT) can reproduce
// the recursion depth — and with it the per-level budget — of a default
// Solve.
const DefaultBaseSize = 64

func (o *Options) setDefaults() {
	if o.BaseSize == 0 {
		o.BaseSize = DefaultBaseSize
	}
	if o.MaxCandidateBlocks == 0 {
		o.MaxCandidateBlocks = 4096
	}
}

func (o *Options) validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 || math.IsNaN(o.Alpha) {
		return fmt.Errorf("recconcave: alpha must be in (0,1), got %v", o.Alpha)
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		return fmt.Errorf("recconcave: beta must be in (0,1), got %v", o.Beta)
	}
	if err := o.Privacy.Validate(); err != nil {
		return err
	}
	if o.Privacy.Delta <= 0 {
		return errors.New("recconcave: delta must be positive (the choosing step is (ε,δ)-DP)")
	}
	if o.BaseSize < 2 {
		return fmt.Errorf("recconcave: base size must be ≥ 2, got %d", o.BaseSize)
	}
	return nil
}

// ErrPromiseViolated is returned when an internal private selection fails in
// a way that (with probability ≥ 1−β) only happens when the promise did not
// hold — the quality was not quasi-concave or no solution reached it.
// Concrete failures are *PromiseError values wrapping this sentinel, so
// errors.Is(err, ErrPromiseViolated) keeps working.
var ErrPromiseViolated = errors.New("recconcave: no solution met the quality promise (promise violated or unlucky noise)")

// PromiseError is the typed form of a promise failure: it carries the
// regime that caused the block-choosing release to miss its threshold, so a
// caller can distinguish "no solution exists" from "this t/ε/β regime is
// infeasible" and report which knob to turn. Solve fills the top-level
// fields; GoodRadius enriches T, Gamma and Slack with its own regime.
type PromiseError struct {
	// Promise is the quality promise the solve was asked to certify
	// (GoodRadius passes its Γ).
	Promise float64
	// Depth is the recursion depth of the whole solve; the (ε, δ) budget is
	// split evenly across levels.
	Depth int
	// LevelEpsilon, LevelDelta are the per-level budget of the failing
	// choosing step; its release threshold is 1 + (4/LevelEpsilon)·ln(2/LevelDelta).
	LevelEpsilon float64
	LevelDelta   float64
	// Scale is the aligned-block length B at the failing choosing step.
	Scale int64
	// Candidates is how many candidate blocks were enumerated (possibly
	// truncated at Options.MaxCandidateBlocks).
	Candidates int

	// The caller's regime, filled by GoodRadius (zero when unset):
	// T is the target cluster size, Gamma the promise Γ of the radius
	// search, and Slack = t − 4Γ the cluster-size headroom Lemma 3.6
	// consumes. A small or negative slack means the regime itself — not the
	// data — made the search fail.
	T     int
	Gamma float64
	Slack float64
}

func (e *PromiseError) Error() string {
	msg := fmt.Sprintf(
		"recconcave: no solution met the quality promise %.4g (depth %d, per-level ε=%.4g δ=%.3g, scale B=%d, %d candidate blocks)",
		e.Promise, e.Depth, e.LevelEpsilon, e.LevelDelta, e.Scale, e.Candidates)
	if e.T > 0 {
		msg += fmt.Sprintf(
			"; t=%d against Γ=%.4g leaves slack t−4Γ=%.4g — when t is within a small factor of Γ the search is infeasible regardless of the data: raise t or ε, or relax β/δ",
			e.T, e.Gamma, e.Slack)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrPromiseViolated) hold for PromiseError.
func (e *PromiseError) Unwrap() error { return ErrPromiseViolated }

// LogStar returns log*₂(x): the number of times log₂ must be iterated,
// starting from x, until the value drops to at most 1.
func LogStar(x float64) int {
	n := 0
	for x > 1 {
		x = math.Log2(x)
		n++
	}
	return n
}

// Depth returns the number of recursion levels Solve will use for a domain
// of the given size (each level shrinks N to ⌈log₂N⌉+2 until BaseSize).
func Depth(n, baseSize int64) int {
	d := 1
	for n > baseSize {
		n = int64(math.Ceil(math.Log2(float64(n)))) + 2
		d++
		if d > 64 { // unreachable for int64 domains; defensive
			break
		}
	}
	return d
}

// Solve privately selects f ∈ [0, N) with Q(f) ≥ (1−α)·promise, given that
// Q (supplied as a step function) is quasi-concave with max ≥ promise.
// See the package comment for the guarantee and cost discussion.
func Solve(rng *rand.Rand, q *StepFn, promise float64, opt Options) (int64, error) {
	opt.setDefaults()
	if err := opt.validate(); err != nil {
		return 0, err
	}
	if promise <= 0 {
		return 0, fmt.Errorf("recconcave: promise must be positive, got %v", promise)
	}
	depth := Depth(q.N(), opt.BaseSize)
	// Split the privacy budget evenly across levels (basic composition,
	// Theorem 2.1): each level performs exactly one private selection.
	level := dp.Params{
		Epsilon: opt.Privacy.Epsilon / float64(depth),
		Delta:   opt.Privacy.Delta / float64(depth),
	}
	betaLevel := opt.Beta / float64(depth)
	f, err := solve(rng, q, promise, opt.Alpha, level, betaLevel, opt)
	if err != nil {
		// The failing choosing step may sit at any recursion level; stamp
		// the top-level context on the way out.
		var pe *PromiseError
		if errors.As(err, &pe) {
			pe.Promise = promise
			pe.Depth = depth
		}
	}
	return f, err
}

// solve is one recursion level. level is the per-level privacy budget.
func solve(rng *rand.Rand, q *StepFn, promise, alpha float64, level dp.Params, beta float64, opt Options) (int64, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return 0, err
		}
	}
	n := q.N()
	if n <= opt.BaseSize {
		return baseCase(rng, q, level.Epsilon)
	}

	// ---- Scale search -------------------------------------------------
	// T = ⌈log₂ N⌉; for j ∈ {0..T} let L(j) = max over length-2^j windows
	// of the window minimum of Q. L is non-increasing with L(0) = max Q ≥ p.
	//
	// With γ = α·p/8 define the level quality
	//
	//	q₂(j) = min{ L(j) − (1−α)p − 2γ , (1−α)p + 6γ − L(j+1) }
	//
	// (second term +∞ at j = T). q₂ is quasi-concave (min of a
	// non-increasing and a non-decreasing sequence) and has sensitivity 1
	// (each term is a ±constant shift of a max-of-min of sensitivity-1
	// values). Taking j* = the largest j with L(j) ≥ (1−α)p + 4γ gives
	// q₂(j*) ≥ 2γ, so the recursion promise is 2γ = α·p/4.
	gamma := alpha * promise / 8
	target := (1 - alpha) * promise

	T := int64(math.Ceil(math.Log2(float64(n))))
	L := make([]float64, T+2)
	for j := int64(0); j <= T; j++ {
		w := int64(1) << uint(j)
		if w >= n || w <= 0 { // w<=0 guards shift overflow
			w = n
		}
		L[j] = q.WindowMinMax(w)
	}
	L[T+1] = math.Inf(-1)

	q2vals := make([]float64, T+1)
	for j := int64(0); j <= T; j++ {
		first := L[j] - target - 2*gamma
		second := target + 6*gamma - L[j+1]
		q2vals[j] = math.Min(first, second)
	}
	q2, err := FromValues(q2vals)
	if err != nil {
		return 0, err
	}
	j, err := solve(rng, q2, 2*gamma, 0.5, level, beta, opt)
	if err != nil {
		return 0, err
	}

	// ---- Resolve the scale to a concrete solution ---------------------
	// With probability ≥ 1−β the recursion returned j with q₂(j) ≥ γ, i.e.
	//
	//	(a) some window of length 2^j has window-min ≥ (1−α)p + 3γ, and
	//	(b) every window of length 2^{j+1} has window-min ≤ (1−α)p + 5γ.
	//
	// Any window of length 2W contains an aligned block of length W, so by
	// (a) some aligned block of length B = max(1, 2^{j−1}) has block-min
	// ≥ (1−α)p + 3γ. We privately choose a high block via a stability-style
	// noisy argmax over the blocks whose min exceeds the target; by (b) and
	// quasi-concavity the qualifying blocks form a short contiguous run.
	// Every point of the chosen block has Q ≥ (1−α)p, so the block midpoint
	// is a valid output.
	var B int64 = 1
	if j >= 1 {
		B = int64(1) << uint(j-1)
	}
	if B > n {
		B = n
	}
	return chooseBlock(rng, q, B, target, level, opt)
}

// baseCase selects f from a small domain via the exponential mechanism.
func baseCase(rng *rand.Rand, q *StepFn, epsilon float64) (int64, error) {
	n := q.N()
	scores := make([]float64, n)
	for f := int64(0); f < n; f++ {
		scores[f] = q.Eval(f)
	}
	idx, err := dp.ExponentialMechanism(rng, scores, 1, epsilon)
	if err != nil {
		return 0, err
	}
	return int64(idx), nil
}

// chooseBlock privately picks an aligned block whose block-min exceeds
// target and returns the block midpoint. The selection is a stability-style
// noisy argmax with a release threshold, mirroring the choosing mechanism of
// BNS'13: block scores have sensitivity 1, blocks that switch from
// non-positive to positive between neighboring datasets have score ≤ 1, and
// the threshold makes releasing such a block a δ-probability event. For
// quasi-concave Q the positive blocks form one contiguous run (the
// super-level set of Q is an interval), so the growth between neighboring
// datasets is bounded by the run-length change.
//
// Candidates are enumerated at block lengths B, B/2, B/4 and B/8 (one joint
// selection, still a single (ε, δ) release): the scale search returns B one
// level of noise away from optimal, and including finer scales keeps a
// fully-contained high block in the candidate set when the noisy scale
// overshot. Undershoot is harmless — smaller blocks fit inside the good
// window even more easily.
func chooseBlock(rng *rand.Rand, q *StepFn, B int64, target float64, level dp.Params, opt Options) (int64, error) {
	n := q.N()
	lo, hi, ok := q.LevelRegion(target)
	type cand struct {
		k, b  int64
		score float64
	}
	var cands []cand
	if ok {
		seen := make(map[int64]struct{}, 4)
		for b := B; b >= 1; b /= 2 {
			if _, dup := seen[b]; dup {
				break
			}
			seen[b] = struct{}{}
			kLo := (lo + b - 1) / b // first block fully inside [lo, hi)
			kHi := hi/b - 1         // last block fully inside
			if kHi >= (n-1)/b {
				kHi = (n - 1) / b
			}
			for k := kLo; k <= kHi && len(cands) < opt.MaxCandidateBlocks; k++ {
				s := q.BlockMin(k, b) - target
				if s > 0 {
					cands = append(cands, cand{k, b, s})
				}
			}
			if len(seen) == 4 || b == 1 {
				break
			}
		}
	}
	// Release threshold: newly-positive blocks have score ≤ 1; the Laplace
	// tail beyond threshold−1 bounds the probability a spurious block is
	// released, which is absorbed into δ.
	lam := 4 / level.Epsilon
	thresh := 1 + lam*math.Log(2/level.Delta)
	var best cand
	bestNoisy := math.Inf(-1)
	for _, c := range cands {
		v := c.score + noise.Laplace(rng, lam)
		if v > bestNoisy {
			bestNoisy = v
			best = c
		}
	}
	if bestNoisy == math.Inf(-1) || bestNoisy < thresh {
		return 0, &PromiseError{
			Scale:        B,
			Candidates:   len(cands),
			LevelEpsilon: level.Epsilon,
			LevelDelta:   level.Delta,
		}
	}
	mid := best.k*best.b + best.b/2
	if mid >= n {
		mid = n - 1
	}
	return mid, nil
}
