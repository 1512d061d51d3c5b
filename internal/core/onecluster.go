package core

import (
	"fmt"
	"math/rand"
	"slices"

	"privcluster/internal/geometry"
	"privcluster/internal/obs"
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

// OneCluster runs Algorithm GoodRadius followed by Algorithm GoodCenter on
// a prebuilt ball index, splitting the privacy budget evenly between them;
// the composition is (ε, δ)-DP by Theorem 2.1. The index must have been
// built (NewBallIndexFrame or one of its remote and mutable twins) over
// points in prm.Grid's unit cube — quantization is the caller's
// responsibility, see geometry.Grid.Quantize — with the grid and worker
// budget prm describes. Index construction draws no randomness, so a
// serving layer may build the index once and amortize it across queries:
// every query releases what a fresh build would. The radius and center
// stages each run under their own trace span when prm.Ctx carries a trace
// (spans record only timings and operation counts — never the data — and
// never touch rng, so traced and untraced runs release identically).
func OneCluster(rng *rand.Rand, ix geometry.BallIndex, prm Params) (ClusterResult, error) {
	prm.setDefaults()
	if err := prm.Validate(ix.N()); err != nil {
		return ClusterResult{}, err
	}
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
// rounds (Theorem 2.1). Round 1 runs on ix itself; each later round runs on
// a fresh NewBallIndexFrame build over the rows of ix.Frame() that no
// earlier ball contains. The cover stops once fewer than prm.T rows remain.
// A round that fails — its index build included — spends its share without
// producing a ball and is skipped; the balls found so far are returned.
// Cancellation aborts the whole cover.
func KCover(rng *rand.Rand, ix geometry.BallIndex, k int, prm Params) ([]geometry.Ball, error) {
	prm.setDefaults()
	if k < 1 {
		return nil, fmt.Errorf("core: KCover needs k ≥ 1, got %d", k)
	}
	if err := prm.Validate(ix.N()); err != nil {
		return nil, err
	}
	round := prm
	round.Privacy = prm.Privacy.Split(k)

	// ids are the uncovered rows of f, ascending.
	f := ix.Frame()
	ids := make([]int32, f.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	var balls []geometry.Ball
	for i := 0; i < k; i++ {
		if err := prm.interrupted(); err != nil {
			return nil, err
		}
		if len(ids) < round.T {
			break
		}
		rdctx, rdspan := obs.StartSpan(prm.Ctx, "kcover/round")
		roundStage := round
		roundStage.Ctx = rdctx
		rix := ix
		var res ClusterResult
		var err error
		if i > 0 {
			rix, err = NewBallIndexFrame(f.Gather(ids), prm.Grid, prm.Index, prm.Profile.Workers)
		}
		if err == nil {
			res, err = OneCluster(rng, rix, roundStage)
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
		// The test is Ball.Contains bit for bit: Frame.DistSq accumulates
		// in Vector.DistSq's order.
		c, rsq := res.Ball.Center, res.Ball.Radius*res.Ball.Radius
		ids = slices.DeleteFunc(ids, func(id int32) bool { return f.DistSq(int(id), c) <= rsq })
	}
	return balls, nil
}
