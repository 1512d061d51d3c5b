// Package core implements the paper's contribution: the differentially
// private 1-cluster algorithm of Theorem 3.2 — Algorithm GoodRadius
// (Section 4.1) composed with Algorithm GoodCenter (Section 4.3) — plus the
// two constructions built on top of it: the IntPoint lower-bound reduction
// (Algorithm 3, Section 5) and the k-ball covering heuristic of
// Observation 3.5.
package core

import (
	"context"
	"fmt"
	"math"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/recconcave"
	"privcluster/internal/stability"
)

// Profile carries the constant factors of the construction. The paper proves
// its guarantees with large explicit constants (interval length 300r, axis
// scale 900, output radius 451·r√k, …) that require astronomically large
// datasets before any signal survives the thresholds. PaperProfile uses
// those constants verbatim; DefaultProfile keeps every formula's *shape*
// (which is what the experiments verify) while shrinking the proof-slack
// constants to values at which n in the thousands produces signal.
//
// Crucially, none of these constants affect the privacy analysis — noise
// magnitudes depend only on (ε, δ) and on sensitivities, which are fixed.
// The constants trade off the failure probability β and the utility bounds.
type Profile struct {
	// GammaFraction scales GoodRadius's quality promise Γ: Γ is the paper
	// formula capped at GammaFraction·t. Γ enters the definition of the
	// searched score Q(r,S) = ½·min{t − L(r/2), L(r) − t + 4Γ} and the
	// cluster-size loss bound Δ = 4Γ; capping keeps the promise meaningful
	// when t ≪ the paper's (astronomical) requirement. 0 means "paper
	// formula uncapped".
	GammaFraction float64

	// JLEta is the distortion parameter η of Lemma 4.10 (paper: 1/2).
	JLEta float64
	// JLDimCap caps the projection dimension k (0 = no cap beyond k ≤ d).
	// The paper's k = Θ(log(n/β)) exceeds d for all small-d experiments, in
	// which case the transform is the identity regardless.
	JLDimCap int

	// BoxSideFactor is the side length of the randomly shifted boxes in R^k
	// as a multiple of the (projected) cluster radius 3r (paper: 100, i.e.
	// side 300r; per-axis capture probability 1 − 1/BoxSideFactor).
	BoxSideFactor float64
	// MaxRepetitions bounds the partition-resampling loop (paper:
	// 2n·log(1/β)/β).
	MaxRepetitions int
	// ThresholdSlackFactor: AboveThreshold is armed with threshold
	// t − ThresholdSlackFactor/ε·log(2n/β) (paper: 100).
	ThresholdSlackFactor float64

	// AxisScaleFactor: per-axis interval length p = AxisScaleFactor · r ·
	// sqrt(k·ln(dn/β)/d) (paper: 900).
	AxisScaleFactor float64
	// UseAxisLogTerm keeps the worst-case sqrt(ln(dn/β)) factor in the
	// per-axis interval length (paper: true). The practical profile drops
	// it: the factor guards the worst case of Lemma 4.9, and at toy scale
	// it inflates the intervals past the whole domain, which pollutes the
	// final average with background points.
	UseAxisLogTerm bool
	// AxisFallback enables a report-noisy-max fallback over the occupied
	// intervals when a per-axis stability choice returns ⊥. The paper's
	// analysis assumes the stability choice succeeds (which needs per-axis
	// counts above a Θ((√d/ε)·log(d/δ)) threshold); the fallback keeps the
	// implementation robust below that scale. It spends the same per-axis ε
	// but forgoes the stability threshold whose Laplace tail absorbs
	// newly-occupied bins into δ — a practical-profile trade-off, like the
	// shrunken constants of DefaultProfile (see the Profile doc).
	AxisFallback bool

	// OutRadiusFactor: the released ball radius is OutRadiusFactor·r·√k
	// (paper: 451).
	OutRadiusFactor float64

	// Workers bounds the worker pool of the parallel passes — GoodCenter's
	// per-repetition box-count pass and the scalable ball index's bulk
	// count passes. 0 means GOMAXPROCS. Parallelism never changes results:
	// the fanned-out passes are deterministic counts, and only their
	// final aggregates meet the private mechanisms.
	Workers int
}

// PaperProfile returns the constants used by the paper's proofs.
func PaperProfile() Profile {
	return Profile{
		GammaFraction:        0, // uncapped paper Γ
		JLEta:                0.5,
		JLDimCap:             0,
		BoxSideFactor:        100,
		MaxRepetitions:       0, // paper formula
		ThresholdSlackFactor: 100,
		AxisScaleFactor:      900,
		UseAxisLogTerm:       true,
		AxisFallback:         false,
		OutRadiusFactor:      451,
	}
}

// DefaultProfile returns practical constants: identical formulas, smaller
// proof slack (see the Profile doc; each field's doc gives the paper value).
func DefaultProfile() Profile {
	return Profile{
		GammaFraction:        1.0 / 6,
		JLEta:                0.5,
		JLDimCap:             24,
		BoxSideFactor:        2,
		MaxRepetitions:       400,
		ThresholdSlackFactor: 8,
		AxisScaleFactor:      1.5,
		UseAxisLogTerm:       false,
		AxisFallback:         true,
		OutRadiusFactor:      5,
	}
}

// Params configures one run of the 1-cluster pipeline.
type Params struct {
	// T is the target cluster size (Definition 1.2).
	T int
	// Privacy is the total (ε, δ) budget of the pipeline; GoodRadius and
	// GoodCenter each receive half (Theorem 2.1).
	Privacy dp.Params
	// Beta is the failure-probability target.
	Beta float64
	// Grid is the discretized domain X^d.
	Grid geometry.Grid
	// Profile holds the constant factors; zero value means DefaultProfile.
	Profile Profile
	// Index selects the ball-index backend (zero value IndexAuto: exact up
	// to ExactIndexMaxN points, scalable beyond).
	Index IndexPolicy
	// Ctx, when non-nil, threads cancellation through the pipeline's
	// long-running inner loops: the index's bulk-count worker pools, the
	// SVT repetition loop of GoodCenter, the RecConcave recursion, and
	// KCover's rounds all check it and abort with ctx.Err(). nil means
	// "never cancel" — every pre-existing caller keeps its behavior.
	// Cancellation is a serving concern, not a privacy one: an aborted run
	// may already have drawn noise, so callers doing budget accounting must
	// treat it as spent.
	Ctx context.Context
	// Scratch, when non-nil, lends reusable buffers to GoodCenter's
	// per-query passes (see QueryScratch). It never changes releases — only
	// the allocation profile — and must not be shared by concurrent queries.
	Scratch *QueryScratch
}

// interrupted returns ctx.Err() of a non-nil Ctx; the pipeline's
// cancellation checkpoints are all `if err := prm.interrupted(); ...`.
func (p *Params) interrupted() error {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Err()
}

func (p *Params) setDefaults() {
	if p.Profile == (Profile{}) {
		p.Profile = DefaultProfile()
	}
	if p.Beta == 0 {
		p.Beta = 0.1
	}
}

// Validate checks the configuration for a dataset of n points.
func (p *Params) Validate(n int) error {
	if err := p.Privacy.Validate(); err != nil {
		return err
	}
	if p.Privacy.Delta <= 0 {
		return fmt.Errorf("core: the 1-cluster pipeline requires delta > 0")
	}
	if p.T < 1 || p.T > n {
		return fmt.Errorf("core: t=%d out of [1, n=%d]", p.T, n)
	}
	if p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("core: beta=%v out of (0,1)", p.Beta)
	}
	if p.Grid.Size < 2 || p.Grid.Dim < 1 {
		return fmt.Errorf("core: invalid grid %+v", p.Grid)
	}
	return nil
}

// Gamma returns GoodRadius's quality promise Γ. The paper (Algorithm 1)
// defines
//
//	Γ = 8^{log*(2|X|√d)} · (144·log*(2|X|√d)/ε) · log(24·log*(2|X|√d)/(βδ)),
//
// which the profile optionally caps at GammaFraction·t so that the promise
// stays below the cluster size on practical inputs.
func (p *Params) Gamma() float64 {
	paper := p.paperGammaAt(p.Privacy)
	if p.Profile.GammaFraction > 0 {
		if cap := p.Profile.GammaFraction * float64(p.T); paper > cap {
			return cap
		}
	}
	return paper
}

// paperGammaAt evaluates the paper's (uncapped) Γ formula at the given
// privacy budget — Gamma() at p.Privacy, MinFeasibleT at the pipeline's
// halved budget.
func (p *Params) paperGammaAt(priv dp.Params) float64 {
	ls := float64(recconcave.LogStar(2 * float64(p.Grid.Size) * math.Sqrt(float64(p.Grid.Dim))))
	if ls < 1 {
		ls = 1
	}
	return math.Pow(8, ls) * (144 * ls / priv.Epsilon) *
		math.Log(24*ls/(p.Beta*priv.Delta))
}

// MinFeasibleT returns a conservative, data-independent floor on the target
// cluster size t: below it, the OneCluster pipeline (GoodRadius and
// GoodCenter at half the (ε, δ) budget each, Theorem 2.1) is essentially
// certain to fail for these parameters — the regime ROADMAP flagged as
// "flaky when t is within a small factor of Γ". Two release thresholds
// bound it:
//
//   - GoodRadius's RecConcave block choice releases a block only when its
//     score clears 1 + (4/ε_l)·ln(2/δ_l) at the per-level budget
//     (ε_l, δ_l) = (ε/4, δ/2)/depth. The best reachable block score is
//     maxQ − (1−α)Γ ≤ 2Γ − Γ/2 = (3/2)Γ, so once Γ < thresh/3 even the
//     optimal block sits a ≥ thresh/2 Laplace excursion below release.
//     With the capped Γ = GammaFraction·t that is t < thresh/(3·GammaFraction);
//     with the uncapped paper Γ the promise itself exceeds the largest
//     possible quality max Q ≤ t/2 until t ≥ 2Γ.
//   - GoodCenter's stability-based box choice releases only when the
//     ≈ t-point box clears 2 + (2/ε_q)·ln(2/δ_q) at its quarter budget;
//     below half that threshold the release is equally unreachable.
//
// The floor is deliberately the "essentially certain to fail" boundary,
// not the "comfortably succeeds" one (≈ 4× higher). Two deliberate
// exclusions keep it honest:
//
//   - The uncapped paper profile (GammaFraction = 0) gets no floor: its Γ
//     is astronomically infeasible by design and by documentation — a
//     categorical, well-understood failure rather than the flaky capped
//     regime this floor targets — and flooring it would foreclose the
//     documented paper-constant exploration path entirely.
//   - The floor reasons about the RecConcave search and the ≈ t-count box
//     choice, but a dataset dominated by ≥ t duplicates succeeds through
//     GoodRadius's Step-2 radius-zero path at any t; callers enforcing the
//     floor should pair it with ZeroClusterPlausible.
func (p *Params) MinFeasibleT() float64 {
	prof := p.Profile
	if prof == (Profile{}) {
		prof = DefaultProfile()
	}
	g := prof.GammaFraction
	if g <= 0 {
		return 0
	}
	half := p.Privacy.Scale(0.5)

	depth := float64(recconcave.Depth(p.Grid.RadiusGridSize(), recconcave.DefaultBaseSize))
	epsL := half.Epsilon / 2 / depth
	deltaL := half.Delta / depth
	thresh := 1 + (4/epsL)*math.Log(2/deltaL)
	radiusFloor := thresh / (3 * g)

	quarter := stability.Params{Epsilon: half.Epsilon / 4, Delta: half.Delta / 4}
	centerFloor := quarter.Threshold() / 2

	return math.Max(radiusFloor, centerFloor)
}

// DeltaLoss returns the cluster-size loss bound Δ = 4Γ + (4/ε)·ln(1/β) of
// Lemma 4.6: the released ball contains at least T − DeltaLoss points with
// probability ≥ 1−β. No release depends on it: it stays as Theorem 3.2's
// Δ, the bound the utility tests check.
func (p *Params) DeltaLoss() float64 {
	return 4*p.Gamma() + (4/p.Privacy.Epsilon)*math.Log(1/p.Beta)
}
