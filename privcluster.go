package privcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"privcluster/internal/agg"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// Point is a point in the d-dimensional unit cube.
type Point = []float64

// IndexPolicy selects the ball-index backend the algorithms preprocess the
// dataset with.
type IndexPolicy int

const (
	// IndexAuto (the default) uses the exact index for small inputs and
	// switches to the scalable one when the Θ(n²) distance matrix would be
	// expensive (above a few thousand points).
	IndexAuto IndexPolicy = iota
	// IndexExact forces the Θ(n²)-memory exact distance index: exact ball
	// counts and score function, viable for n in the low thousands.
	IndexExact
	// IndexScalable forces the O(n·d)-memory grid-bucketed cell index:
	// ball counts resolved by per-cell candidate pruning, with the score
	// function approximated on a geometric radius ladder. Privacy is
	// unaffected; the returned radius can be a small constant factor wider
	// than with IndexExact.
	IndexScalable
)

// Options configures the private algorithms. The zero value gives ε = 1,
// δ = 10⁻⁶, β = 0.1, |X| = 2¹⁶, the automatic index backend and a
// time-seeded generator (fresh noise per call — the only safe default for
// a privacy library).
type Options struct {
	// Epsilon, Delta are the total differential-privacy budget of one call.
	Epsilon float64
	Delta   float64
	// Beta is the failure-probability target of the utility guarantees.
	Beta float64
	// GridSize is |X|: the number of grid values per axis of the finite
	// domain X^d. Inputs are snapped onto the grid (Definition 1.2 requires
	// a finite domain; Section 5 proves infinite domains are impossible).
	GridSize int64
	// Seed makes the run reproducible. 0 is the documented sentinel for
	// "draw a fresh seed from the clock on every call"; to use the literal
	// seed 0, set ZeroSeed. Reproducible noise is for experiments only —
	// never for deployments.
	Seed int64
	// ZeroSeed treats Seed == 0 as a literal, reproducible seed instead of
	// the draw-from-clock sentinel. Nonzero seeds are unaffected.
	ZeroSeed bool
	// IndexPolicy selects the dataset index backend (default IndexAuto).
	IndexPolicy IndexPolicy
	// Paper switches every internal constant to the paper's proof values
	// (see internal/core.PaperProfile). With them, meaningful output needs
	// astronomically large datasets; the default profile keeps the same
	// formulas at practical scale.
	Paper bool
	// Min and Max describe the data domain [Min, Max]^d (Remark 3.3's
	// general grid with axis length L = Max−Min). Inputs are affinely
	// mapped onto the unit cube and outputs mapped back, so released radii
	// are in the original units. Both zero means the unit cube itself.
	Min, Max float64
	// Workers bounds the worker pools of the parallel passes (the scalable
	// index's bulk counts and GoodCenter's box-partition loop). 0 means
	// GOMAXPROCS. Parallelism never changes results — only aggregates of
	// the deterministic count passes reach the private mechanisms.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 1
	}
	if o.Delta == 0 {
		o.Delta = 1e-6
	}
	if o.Beta == 0 {
		o.Beta = 0.1
	}
	if o.GridSize == 0 {
		o.GridSize = 1 << 16
	}
	return o
}

// seededRNG implements the shared seed semantics of Options and
// QueryOptions: 0 draws from the clock unless zeroSeed makes it literal.
func seededRNG(seed int64, zeroSeed bool) *rand.Rand {
	if seed == 0 && !zeroSeed {
		seed = time.Now().UnixNano()
	}
	return rand.New(rand.NewSource(seed))
}

func (o Options) rng() *rand.Rand { return seededRNG(o.Seed, o.ZeroSeed) }

// core maps the public index policy onto the core one, rejecting unknown
// values.
func (p IndexPolicy) core() (core.IndexPolicy, error) {
	switch p {
	case IndexAuto:
		return core.IndexAuto, nil
	case IndexExact:
		return core.IndexExact, nil
	case IndexScalable:
		return core.IndexScalable, nil
	default:
		return 0, fmt.Errorf("privcluster: unknown index policy %d", p)
	}
}

func (o Options) profile() core.Profile {
	p := core.DefaultProfile()
	if o.Paper {
		p = core.PaperProfile()
	}
	p.Workers = o.Workers
	return p
}

// datasetOptions splits Options into its handle half: everything that is a
// property of the prepared data rather than of one query.
func (o Options) datasetOptions() DatasetOptions {
	return DatasetOptions{
		GridSize:    o.GridSize,
		Min:         o.Min,
		Max:         o.Max,
		IndexPolicy: o.IndexPolicy,
		Workers:     o.Workers,
		Paper:       o.Paper,
		// No Budget: the one-shot free functions never refuse a query.
	}
}

// queryOptions splits Options into its per-query half.
func (o Options) queryOptions() QueryOptions {
	return QueryOptions{
		Epsilon:  o.Epsilon,
		Delta:    o.Delta,
		Beta:     o.Beta,
		Seed:     o.Seed,
		ZeroSeed: o.ZeroSeed,
	}
}

// Cluster is a released ball.
type Cluster struct {
	Center Point
	Radius float64
	// RawRadius is the GoodRadius stage's estimate (≤ 4·r_opt w.h.p.);
	// Radius is the final covering radius, O(RawRadius·√log n).
	RawRadius float64
	// ZeroRadius marks the degenerate case of ≥ t identical points.
	ZeroRadius bool
}

// Contains reports whether p lies in the cluster's ball.
func (c Cluster) Contains(p Point) bool {
	return geometry.Ball{Center: vec.Vector(c.Center), Radius: c.Radius}.Contains(vec.Vector(p))
}

// Count returns how many of the given points lie in the cluster's ball. For
// a uniform-dimension slice it runs as one flat sweep over a frame view of
// the points (the same CountWithin kernel the indexes use; Contains and the
// kernel compare DistSq ≤ Radius² identically, so the count is unchanged).
func (c Cluster) Count(points []Point) int {
	if f, err := vec.FrameFromVectors(vecsOf(points)); err == nil && f.Dim() == len(c.Center) {
		return f.CountWithin(vec.Vector(c.Center), c.Radius)
	}
	n := 0
	for _, p := range points {
		if c.Contains(p) {
			n++
		}
	}
	return n
}

// vecsOf reinterprets a []Point as []vec.Vector without copying coordinates.
func vecsOf(points []Point) []vec.Vector {
	vs := make([]vec.Vector, len(points))
	for i, p := range points {
		vs[i] = vec.Vector(p)
	}
	return vs
}

// ErrNoPoints is returned for empty inputs.
var ErrNoPoints = errors.New("privcluster: no input points")

// ErrInfeasible is returned by the pre-flight feasibility check: the target
// t sits below the floor at which the pipeline's private-selection release
// thresholds are reachable at all for the given (ε, δ, β, |X|), so the run
// would fail (flakily, after spending its budget). The wrapping error says
// which of t/ε/β to raise. The floor itself is a pure function of the
// parameters; the only data the check consults is the input's duplicate
// structure — a dataset with ≈ t duplicated points succeeds through the
// radius-zero path at any t and is never rejected. (Like every error this
// library releases, that one branch makes the outcome data-dependent; see
// the privacy disclaimer in the package documentation.)
var ErrInfeasible = errors.New("privcluster: t is infeasibly small for the privacy regime")

// FindCluster solves the 1-cluster problem (Theorem 3.2): it privately
// locates a ball that, with probability ≥ 1−β, contains at least t − Δ of
// the input points and whose radius is within O(√log n) of the smallest
// ball containing t points. Points are snapped onto the |X|-per-axis grid.
//
// It is a thin wrapper over the Dataset handle — Open followed by one
// query on a budget-less handle — so every call re-prepares the points and
// rebuilds the index. A serving process issuing repeated queries on the
// same data should Open a handle once instead.
func FindCluster(points []Point, t int, o Options) (Cluster, error) {
	ds, err := Open(points, o.datasetOptions())
	if err != nil {
		return Cluster{}, err
	}
	return ds.FindCluster(context.Background(), t, o.queryOptions())
}

// FindClusters iterates FindCluster k times (Observation 3.5), each round
// on the not-yet-covered points, splitting the privacy budget across
// rounds. It returns the balls found (possibly fewer than k). Like
// FindCluster, it is a single-use-handle wrapper over Dataset.FindClusters.
func FindClusters(points []Point, k, t int, o Options) ([]Cluster, error) {
	ds, err := Open(points, o.datasetOptions())
	if err != nil {
		return nil, err
	}
	return ds.FindClusters(context.Background(), k, t, o.queryOptions())
}

// InteriorPoint privately returns a value between min(values) and
// max(values) (Algorithm 3 / Theorem 5.3) — the primitive whose Ω(log*|X|)
// lower bound transfers to the 1-cluster problem. Values must lie in [0,1].
// innerN is the size of the middle sub-database handed to the 1-cluster
// stage; the (len(values)−innerN)/2 extreme values on each side provide the
// selection quality margin.
//
// It is a single-use-handle wrapper over Dataset.InteriorPoint, and — like
// the other handle queries — pre-flights the inner stage's feasibility,
// returning ErrInfeasible instead of a late promise failure when
// innerN/2 sits below the floor for the privacy regime.
func InteriorPoint(values []float64, innerN int, o Options) (float64, error) {
	if len(values) == 0 {
		return 0, ErrNoPoints
	}
	pts := make([]Point, len(values))
	for i, v := range values {
		pts[i] = Point{v}
	}
	do := o.datasetOptions()
	// The documented contract is values in [0, 1]; the legacy function
	// never honored Min/Max, so the wrapper pins the unit domain.
	do.Min, do.Max = 0, 0
	ds, err := Open(pts, do)
	if err != nil {
		return 0, err
	}
	return ds.InteriorPoint(context.Background(), innerN, o.queryOptions())
}

// Aggregate compiles the non-private analysis f into a private one via
// sample-and-aggregate (Algorithm SA, Theorem 6.3). f is evaluated on
// len(rows)/(9m) random blocks of m rows each; the evaluations (points in
// [0,1]^dim) are aggregated by the private 1-cluster algorithm. If f is
// (m, r, alpha)-stable on the rows (Definition 6.1), the returned point is,
// with probability ≥ 1−β, an (m, O(r·√log n), alpha/8)-stable point — a
// private stand-in for f(rows).
//
// Aggregate cannot ride a Dataset handle: the aggregated points are the f
// evaluations, which exist only mid-run (and are drawn with the same rng
// stream the aggregation continues with). It shares the handle's
// validation path instead — parameters are checked up front, and the
// 1-cluster stage's feasibility is pre-flighted on the evaluations (via
// the same check as FindCluster) right before the budget-spending
// aggregation, returning ErrInfeasible instead of a late promise failure.
func Aggregate[R any](rows []R, f func([]R) Point, dim, m int, alpha float64, o Options) (Point, error) {
	o = o.withDefaults()
	q := o.queryOptions().withDefaults()
	if err := q.validate(); err != nil {
		return nil, err
	}
	pol, err := o.IndexPolicy.core()
	if err != nil {
		return nil, err
	}
	grid, err := geometry.NewGrid(o.GridSize, dim)
	if err != nil {
		return nil, err
	}
	cprm := core.Params{
		Privacy: dp.Params{Epsilon: o.Epsilon, Delta: o.Delta},
		Beta:    o.Beta,
		Grid:    grid,
		Profile: o.profile(),
		Index:   pol,
	}
	prm := agg.Params{
		M:       m,
		Alpha:   alpha,
		Cluster: cprm,
		Preflight: func(evals *vec.Frame, t int) error {
			check := cprm
			check.T = t
			plaus := func(p core.Params) bool { return core.ZeroClusterPlausible(evals, p) }
			return checkFeasible(plaus, check, 1, q, o.GridSize)
		},
	}
	res, err := agg.Run(o.rng(), rows, func(rs []R) vec.Vector { return vec.Vector(f(rs)) }, prm)
	if err != nil {
		return nil, err
	}
	return Point(res.Point), nil
}
