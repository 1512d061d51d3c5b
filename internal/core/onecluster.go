package core

import (
	"fmt"
	"math/rand"

	"privcluster/internal/geometry"
	"privcluster/internal/obs"
	"privcluster/internal/vec"
)

// ClusterResult is the outcome of the full 1-cluster pipeline
// (Theorem 3.2): a ball that, with probability ≥ 1−β, contains at least
// t − Δ input points and has radius at most w·r_opt with w = O(√log n).
type ClusterResult struct {
	Ball geometry.Ball
	// RawRadius is GoodRadius's output r (≤ 4·r_opt); the released ball's
	// radius is O(r·√k).
	RawRadius float64
	// ZeroCluster marks the degenerate duplicated-points case.
	ZeroCluster bool
	// Center diagnostics, forwarded from GoodCenter.
	K            int
	Repetitions  int
	BoxCount     int
	FallbackAxes int
}

// OneCluster runs Algorithm GoodRadius followed by Algorithm GoodCenter,
// splitting the privacy budget evenly between them; the composition is
// (ε, δ)-DP by Theorem 2.1. The points must lie in prm.Grid's unit cube
// (quantization is the caller's responsibility — see geometry.Grid.Quantize).
// The dataset index backend follows prm.Index (exact below ExactIndexMaxN
// points under IndexAuto, the O(n·d)-memory cell index beyond).
func OneCluster(rng *rand.Rand, points []vec.Vector, prm Params) (ClusterResult, error) {
	prm.setDefaults()
	if err := prm.Validate(len(points)); err != nil {
		return ClusterResult{}, err
	}
	if err := prm.interrupted(); err != nil {
		return ClusterResult{}, err
	}
	f, err := vec.FrameFromVectors(points)
	if err != nil {
		return ClusterResult{}, err
	}
	ix, err := NewBallIndexFrame(f, prm.Grid, prm.Index, prm.Profile.Workers)
	if err != nil {
		return ClusterResult{}, err
	}
	return oneClusterIndexed(rng, ix, prm)
}

// OneClusterIndexed is OneCluster on a prebuilt ball index — the seam a
// serving layer uses to amortize the (dominant) index construction across
// repeated queries on the same dataset. The index must have been built by
// NewBallIndexFrame over the same grid and worker budget prm describes; since
// index construction draws no randomness, a prebuilt index releases
// bit-identical seeded results to OneCluster on the same points.
func OneClusterIndexed(rng *rand.Rand, ix geometry.BallIndex, prm Params) (ClusterResult, error) {
	prm.setDefaults()
	if err := prm.Validate(ix.N()); err != nil {
		return ClusterResult{}, err
	}
	return oneClusterIndexed(rng, ix, prm)
}

// oneClusterIndexed is OneCluster on a prebuilt ball index. The radius and
// center stages each run under their own trace span when prm.Ctx carries a
// trace (spans record only timings and operation counts — never the data —
// and never touch rng, so traced and untraced runs release identically).
func oneClusterIndexed(rng *rand.Rand, ix geometry.BallIndex, prm Params) (ClusterResult, error) {
	half := prm
	half.Privacy = prm.Privacy.Scale(0.5)

	rctx, rspan := obs.StartSpan(prm.Ctx, "radius")
	halfStage := half
	halfStage.Ctx = rctx
	rad, err := GoodRadius(rng, ix, halfStage)
	rspan.End()
	if err != nil {
		return ClusterResult{}, fmt.Errorf("core: radius stage: %w", err)
	}
	if err := prm.interrupted(); err != nil {
		return ClusterResult{}, err
	}
	cctx, cspan := obs.StartSpan(prm.Ctx, "center")
	halfStage.Ctx = cctx
	cen, err := GoodCenterFrame(rng, ix.Frame(), rad.Radius, halfStage)
	cspan.Count("svt_repetitions", int64(cen.Repetitions))
	cspan.Count("fallback_axes", int64(cen.FallbackAxes))
	cspan.End()
	if err != nil {
		return ClusterResult{}, fmt.Errorf("core: center stage: %w", err)
	}
	return ClusterResult{
		Ball:         geometry.Ball{Center: cen.Center, Radius: cen.Radius},
		RawRadius:    rad.Radius,
		ZeroCluster:  rad.ZeroCluster,
		K:            cen.K,
		Repetitions:  cen.Repetitions,
		BoxCount:     cen.BoxCount,
		FallbackAxes: cen.FallbackAxes,
	}, nil
}

// KCover implements Observation 3.5: iterating the 1-cluster algorithm k
// times — each round on the points not yet covered — yields up to k balls
// covering most of the data. The privacy budget is split evenly across
// rounds (Theorem 2.1). Rounds that fail (e.g. too few points remain) are
// skipped; the balls found so far are returned.
func KCover(rng *rand.Rand, points []vec.Vector, k int, prm Params) ([]geometry.Ball, error) {
	return kCover(rng, points, nil, k, prm)
}

// KCoverIndexed is KCover with a prebuilt index over the full point set:
// round 1 runs on it directly (skipping the dominant preprocessing cost);
// later rounds operate on the not-yet-covered subsets, for which the index
// is rebuilt exactly as KCover would. Results are bit-identical to KCover
// under the same seed, for the same reason OneClusterIndexed's are.
func KCoverIndexed(rng *rand.Rand, ix geometry.BallIndex, k int, prm Params) ([]geometry.Ball, error) {
	// Round 1 runs on the index itself; later rounds filter the remainder,
	// which still wants per-point views — Rows() is header-only on float64.
	return kCover(rng, ix.Frame().Rows(), ix, k, prm)
}

func kCover(rng *rand.Rand, points []vec.Vector, full geometry.BallIndex, k int, prm Params) ([]geometry.Ball, error) {
	prm.setDefaults()
	if k < 1 {
		return nil, fmt.Errorf("core: KCover needs k ≥ 1, got %d", k)
	}
	if err := prm.Validate(len(points)); err != nil {
		return nil, err
	}
	round := prm
	round.Privacy = prm.Privacy.Split(k)

	remaining := points
	var balls []geometry.Ball
	for i := 0; i < k; i++ {
		if err := prm.interrupted(); err != nil {
			return nil, err
		}
		if len(remaining) < round.T {
			break
		}
		rdctx, rdspan := obs.StartSpan(prm.Ctx, "kcover/round")
		roundStage := round
		roundStage.Ctx = rdctx
		var res ClusterResult
		var err error
		if i == 0 && full != nil {
			res, err = OneClusterIndexed(rng, full, roundStage)
		} else {
			res, err = OneCluster(rng, remaining, roundStage)
		}
		rdspan.End()
		if err != nil {
			if ctxErr := prm.interrupted(); ctxErr != nil {
				// Cancellation must not be mistaken for a failed round: it
				// aborts the whole cover, not just this round's share.
				return nil, ctxErr
			}
			// A failed round spends its budget share without producing a
			// ball; later rounds may still succeed on the same points.
			continue
		}
		balls = append(balls, res.Ball)
		_, remaining = res.Ball.Filter(remaining)
	}
	return balls, nil
}
