package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/noise"
	"privcluster/internal/obs"
	"privcluster/internal/recconcave"
	"privcluster/internal/vec"
)

// RadiusResult is the outcome of Algorithm GoodRadius.
type RadiusResult struct {
	// Radius r such that (w.h.p., Lemma 3.6) some ball of radius r holds at
	// least t − 4Γ − (4/ε)ln(1/β) input points and r ≤ 4·r_opt.
	Radius float64
	// ZeroCluster is true when Step 2 detected a radius-zero cluster (≈ t
	// duplicated points) and halted with Radius = 0.
	ZeroCluster bool
	// Gamma is the promise Γ that was used (diagnostic).
	Gamma float64
}

// GoodRadius implements Algorithm 1. It consumes the full privacy budget
// passed in priv: (ε/2, 0) on the Step-2 Laplace test and (ε/2, δ) on the
// RecConcave radius search, composing to (ε, δ) (Lemma 4.5).
//
// The dataset is supplied as a prebuilt BallIndex (so OneCluster can reuse
// it and callers can pick the exact or the scalable backend — see
// NewBallIndexFrame); the index's points must lie in prm.Grid's unit cube. Both
// backends keep L's sensitivity at 2, so the privacy analysis is identical;
// the scalable backend's radius discretization only costs utility (a
// constant-factor widening of the returned radius).
func GoodRadius(rng *rand.Rand, ix geometry.BallIndex, prm Params) (RadiusResult, error) {
	prm.setDefaults()
	n := ix.N()
	if err := prm.Validate(n); err != nil {
		return RadiusResult{}, err
	}
	t := prm.T
	eps := prm.Privacy.Epsilon
	gamma := prm.Gamma()

	if err := prm.interrupted(); err != nil {
		return RadiusResult{}, err
	}
	lctx, lspan := obs.StartSpan(prm.Ctx, "lstep")
	ls, err := ix.BuildLStep(lctx, t)
	lspan.End()
	if err != nil {
		return RadiusResult{}, err
	}
	lspan.Count("breaks", int64(len(ls.Breaks)))

	// Step 2: radius-zero test. L(0,·) has sensitivity 2, so Lap(4/ε) is
	// (ε/2, 0)-DP.
	l0 := ls.Eval(0) + noise.Laplace(rng, 4/eps)
	obs.CurrentSpan(prm.Ctx).Count("noise_draws", 1)
	if l0 > float64(t)-2*gamma-(4/eps)*math.Log(2/prm.Beta) {
		return RadiusResult{Radius: 0, ZeroCluster: true, Gamma: gamma}, nil
	}

	// Steps 3–4: build the quality Q(r,S) = ½·min{t − L(r/2), L(r) − t + 4Γ}
	// as a step function over the radius grid and hand it to RecConcave.
	q, err := buildRadiusQuality(ls, prm.Grid, t, gamma)
	if err != nil {
		return RadiusResult{}, err
	}
	rcctx, rcspan := obs.StartSpan(prm.Ctx, "recconcave")
	idx, err := recconcave.Solve(rng, q, gamma, recconcave.Options{
		Alpha:   0.5,
		Beta:    prm.Beta / 2,
		Privacy: dp.Params{Epsilon: eps / 2, Delta: prm.Privacy.Delta},
		Ctx:     rcctx,
	})
	rcspan.End()
	if err != nil {
		// Enrich a promise failure with the concrete regime so callers can
		// tell "no cluster exists" from "t is too close to Γ for this ε/β":
		// the t−4Γ slack is the headroom Lemma 3.6 consumes, and a small
		// value pins the failure on the regime, not the data.
		var pe *recconcave.PromiseError
		if errors.As(err, &pe) {
			pe.T = t
			pe.Gamma = gamma
			pe.Slack = float64(t) - 4*gamma
		}
		return RadiusResult{}, fmt.Errorf("core: GoodRadius search failed: %w", err)
	}
	return RadiusResult{Radius: prm.Grid.RadiusFromIndex(idx), Gamma: gamma}, nil
}

// ZeroClusterPlausible reports whether the dataset's duplicate structure
// could plausibly fire GoodRadius's Step-2 radius-zero test under the
// OneCluster pipeline split (half the (ε, δ) budget): L(0, S) — the top-t
// average of the duplicate multiplicities — within one extra noise margin
// of the Step-2 threshold. The radius-zero path bypasses the RecConcave
// search entirely, so it is the one data shape for which a t below
// MinFeasibleT still succeeds end to end; the pre-flight feasibility check
// consults this before rejecting. A nil or empty frame is never plausible.
func ZeroClusterPlausible(f *vec.Frame, prm Params) bool {
	prm.setDefaults()
	t := prm.T
	if t < 1 || f == nil || f.N() == 0 {
		return false
	}
	l0 := zeroRadiusL(f, t)

	half := prm
	half.Privacy = prm.Privacy.Scale(0.5)
	eps := half.Privacy.Epsilon
	margin := (4 / eps) * math.Log(2/prm.Beta)
	// Step 2 fires when L(0) + Lap(4/ε) > t − 2Γ − margin; grant one extra
	// margin width of helpful noise so borderline datasets get to try.
	return l0 > float64(t)-2*half.Gamma()-2*margin
}

// zeroRadiusL is L(0, S) = Σ_{i<t} min(s_i, t) / t over the per-row
// duplicate counts s in descending order: each point scores its class size
// capped at t, and the top t scores are averaged.
func zeroRadiusL(f *vec.Frame, t int) float64 {
	s := geometry.DupCounts(f, f, nil)
	slices.SortFunc(s, func(a, b int32) int { return cmp.Compare(b, a) })
	var sum int64
	for _, m := range s[:min(t, len(s))] {
		sum += int64(min(int(m), t))
	}
	return float64(sum) / float64(t)
}

// buildRadiusQuality materializes Q(r_k, S) over radius-grid indices
// k ∈ [0, M). Q changes value only where L(r_k) or L(r_k/2) does, i.e. at
// indices ⌈b/u⌉ and ⌈2b/u⌉ for breakpoints b of L — O(n²) pieces
// regardless of the grid size (Remark 4.4's efficiency condition).
func buildRadiusQuality(ls *geometry.LStep, grid geometry.Grid, t int, gamma float64) (*recconcave.StepFn, error) {
	u := grid.RadiusUnit()
	m := grid.RadiusGridSize()
	breakSet := make(map[int64]struct{}, 2*len(ls.Breaks)+1)
	breakSet[0] = struct{}{}
	add := func(r float64) {
		kf := math.Ceil(r / u)
		if kf < float64(m) && kf > 0 {
			breakSet[int64(kf)] = struct{}{}
		}
	}
	for _, b := range ls.Breaks {
		add(b)     // where L(r_k) jumps
		add(2 * b) // where L(r_k/2) jumps
	}
	breaks := make([]int64, 0, len(breakSet))
	for k := range breakSet {
		breaks = append(breaks, k)
	}
	sort.Slice(breaks, func(i, j int) bool { return breaks[i] < breaks[j] })

	vals := make([]float64, len(breaks))
	for i, k := range breaks {
		r := float64(k) * u
		vals[i] = 0.5 * math.Min(
			float64(t)-ls.Eval(r/2),
			ls.Eval(r)-float64(t)+4*gamma,
		)
	}
	return recconcave.NewStepFn(m, breaks, vals)
}
