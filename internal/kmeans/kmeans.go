// Package kmeans builds the application the paper motivates in §1.1 and §6:
// differentially private k-means clustering, with the private 1-cluster
// algorithm as the initialization engine.
//
// The construction:
//
//  1. Seeding — Observation 3.5's k-ball covering: iterate the 1-cluster
//     algorithm k times (budget share ε_seed), taking each released ball's
//     center as an initial k-means center. Unlike random or noisy-grid
//     seeding, this finds minority modes.
//  2. Lloyd refinement — for a fixed number of rounds, assign points to the
//     nearest center (a per-point computation that needs no noise: the
//     assignment is never released) and move each center to the NoisyAVG
//     (Algorithm 5) of its cluster, with the predicate ball of radius
//     MoveRadius around the previous center bounding the sensitivity. Each
//     round spends an even share of ε_lloyd across the k averages.
//
// Composition (Theorem 2.1) over the seeding and all Lloyd averages gives
// the total (ε, δ) guarantee, which Params.Validate checks explicitly with
// a dp.Accountant.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// Params configures a private k-means run.
type Params struct {
	// K is the number of centers.
	K int
	// T is the per-cluster target size handed to the 1-cluster seeder
	// (defaults to n/(2k)).
	T int
	// Privacy is the total (ε, δ) budget of the whole run.
	Privacy dp.Params
	// SeedFraction is the share of ε spent on 1-cluster seeding (default
	// 0.5; the rest is split across Lloyd rounds).
	SeedFraction float64
	// Rounds is the number of Lloyd iterations (default 4).
	Rounds int
	// MoveRadius bounds how far a center may move per round — the NoisyAVG
	// predicate radius (default 0.25). Smaller values mean less noise but
	// slower convergence.
	MoveRadius float64
	// Beta, Grid as in core.Params.
	Beta float64
	Grid geometry.Grid
	// Profile for the seeding stage (zero value = core.DefaultProfile).
	Profile core.Profile
	// Index selects the seeding stage's ball-index backend (zero value
	// core.IndexAuto).
	Index core.IndexPolicy
}

func (p *Params) setDefaults(n int) {
	if p.SeedFraction == 0 {
		p.SeedFraction = 0.5
	}
	if p.Rounds == 0 {
		p.Rounds = 4
	}
	if p.MoveRadius == 0 {
		p.MoveRadius = 0.25
	}
	if p.T == 0 && p.K > 0 {
		p.T = n / (2 * p.K)
	}
	if p.Beta == 0 {
		p.Beta = 0.1
	}
}

// Validate checks the configuration for a dataset of n points, including
// that the internal budget plan stays within Privacy (via dp.Accountant).
func (p *Params) Validate(n int) error {
	if p.K < 1 {
		return fmt.Errorf("kmeans: k must be ≥ 1, got %d", p.K)
	}
	if p.SeedFraction <= 0 || p.SeedFraction >= 1 {
		return fmt.Errorf("kmeans: seed fraction %v out of (0,1)", p.SeedFraction)
	}
	if p.Rounds < 0 {
		return fmt.Errorf("kmeans: negative rounds")
	}
	if p.MoveRadius <= 0 {
		return fmt.Errorf("kmeans: move radius must be positive")
	}
	if err := p.Privacy.Validate(); err != nil {
		return err
	}
	if p.Privacy.Delta <= 0 {
		return fmt.Errorf("kmeans: delta must be positive")
	}
	if p.T < 1 || p.T > n {
		return fmt.Errorf("kmeans: t=%d out of [1, %d]", p.T, n)
	}
	// Budget plan: seeding + rounds·k averages must fit.
	acct, err := dp.NewAccountant(p.Privacy)
	if err != nil {
		return err
	}
	seed, lloyd := p.budgets()
	if err := acct.Spend(seed); err != nil {
		return fmt.Errorf("kmeans: seeding budget: %w", err)
	}
	for r := 0; r < p.Rounds; r++ {
		for c := 0; c < p.K; c++ {
			if err := acct.Spend(lloyd); err != nil {
				return fmt.Errorf("kmeans: lloyd budget: %w", err)
			}
		}
	}
	return nil
}

// budgets returns the seeding budget and the per-average Lloyd budget.
func (p *Params) budgets() (seed, perAvg dp.Params) {
	seed = dp.Params{
		Epsilon: p.Privacy.Epsilon * p.SeedFraction,
		Delta:   p.Privacy.Delta * p.SeedFraction,
	}
	rest := dp.Params{
		Epsilon: p.Privacy.Epsilon - seed.Epsilon,
		Delta:   p.Privacy.Delta - seed.Delta,
	}
	total := p.Rounds * p.K
	if total == 0 {
		return seed, rest
	}
	return seed, rest.Split(total)
}

// Result of a private k-means run.
type Result struct {
	Centers []vec.Vector
	// SeedBalls are the 1-cluster balls the centers started from.
	SeedBalls []geometry.Ball
	// Cost is the *non-private* k-means cost (mean squared distance to the
	// nearest center) — a diagnostic for experiments; do not release it
	// alongside Centers without spending additional budget.
	Cost float64
}

// Run executes private k-means on the points (which must lie in the grid's
// unit cube).
func Run(rng *rand.Rand, points []vec.Vector, prm Params) (Result, error) {
	n := len(points)
	prm.setDefaults(n)
	if err := prm.Validate(n); err != nil {
		return Result{}, err
	}
	// One flat frame backs every per-round distance pass (assignment, the
	// NoisyAVG selections, the final cost) — the Lloyd loops sweep it via
	// the shared kernels instead of pointer-chasing n row slices.
	frame, err := vec.FrameFromVectors(points)
	if err != nil {
		return Result{}, fmt.Errorf("kmeans: %w", err)
	}
	seedBudget, avgBudget := prm.budgets()

	// Stage 1: seed centers with the k-ball covering, over an index on the
	// same frame.
	seedPrm := core.Params{
		T:       prm.T,
		Privacy: seedBudget,
		Beta:    prm.Beta,
		Grid:    prm.Grid,
		Profile: prm.Profile,
		Index:   prm.Index,
	}
	ix, err := core.NewBallIndexFrame(frame, prm.Grid, prm.Index, prm.Profile.Workers)
	if err != nil {
		return Result{}, fmt.Errorf("kmeans: seeding: %w", err)
	}
	balls, err := core.KCover(rng, ix, prm.K, seedPrm)
	if err != nil {
		return Result{}, fmt.Errorf("kmeans: seeding: %w", err)
	}
	if len(balls) == 0 {
		return Result{}, fmt.Errorf("kmeans: seeding found no clusters")
	}
	centers := make([]vec.Vector, len(balls))
	for i, b := range balls {
		centers[i] = b.Center.Clone()
	}

	// Stage 2: Lloyd rounds with NoisyAVG center updates. The assignment is
	// the frame's nearest-center kernel (strict <, ties to the lowest
	// index — the same rule the per-point loop applied), and the averages
	// run straight off the frame's rows.
	for round := 0; round < prm.Rounds; round++ {
		assignments := assign(frame, centers)
		for c := range centers {
			res, err := dp.NoisyAverageRows(rng, frame, assignments[c], centers[c], prm.MoveRadius, avgBudget)
			if err != nil {
				return Result{}, err
			}
			if res.Aborted {
				// Too few points near this center: keep it in place. The ⊥
				// outcome is itself differentially private.
				continue
			}
			centers[c] = res.Average.Clamp(0, 1)
		}
	}
	return Result{Centers: centers, SeedBalls: balls, Cost: costFrame(frame, centers)}, nil
}

// assign splits the frame's rows by nearest center, returning per-center row
// ids in row order.
func assign(f *vec.Frame, centers []vec.Vector) [][]int {
	out := make([][]int, len(centers))
	for i := 0; i < f.N(); i++ {
		best, _ := f.Nearest(i, centers)
		out[best] = append(out[best], i)
	}
	return out
}

// Cost returns the k-means objective: mean squared distance to the nearest
// center. (Non-private; for evaluation.)
func Cost(points []vec.Vector, centers []vec.Vector) float64 {
	if len(points) == 0 || len(centers) == 0 {
		return 0
	}
	f, err := vec.FrameFromVectors(points)
	if err != nil {
		// Ragged input: fall back to the per-point loop, which panics on the
		// first mismatched pair exactly as it always did.
		var sum float64
		for _, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := p.DistSq(c); d < best {
					best = d
				}
			}
			sum += best
		}
		return sum / float64(len(points))
	}
	return costFrame(f, centers)
}

// costFrame is Cost on a prebuilt frame.
func costFrame(f *vec.Frame, centers []vec.Vector) float64 {
	if f == nil || f.N() == 0 || len(centers) == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < f.N(); i++ {
		_, best := f.Nearest(i, centers)
		sum += best
	}
	return sum / float64(f.N())
}

// LloydNonprivate runs plain k-means from the given initial centers — the
// non-private reference the experiments compare against.
func LloydNonprivate(points []vec.Vector, initial []vec.Vector, rounds int) []vec.Vector {
	centers := make([]vec.Vector, len(initial))
	for i, c := range initial {
		centers[i] = c.Clone()
	}
	f, err := vec.FrameFromVectors(points)
	if err != nil {
		return centers
	}
	d := f.Dim()
	for r := 0; r < rounds; r++ {
		groups := assign(f, centers)
		for c, g := range groups {
			if len(g) == 0 {
				continue
			}
			mean := make(vec.Vector, d)
			for _, id := range g {
				row := f.Row(id)
				for j := range mean {
					mean[j] += row[j]
				}
			}
			for j := range mean {
				mean[j] /= float64(len(g))
			}
			centers[c] = mean
		}
	}
	return centers
}
