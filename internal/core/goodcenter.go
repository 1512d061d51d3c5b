package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"privcluster/internal/dp"
	"privcluster/internal/jl"
	"privcluster/internal/noise"
	"privcluster/internal/obs"
	"privcluster/internal/stability"
	"privcluster/internal/svt"
	"privcluster/internal/vec"
)

// CenterResult is the outcome of Algorithm GoodCenter.
type CenterResult struct {
	// Center is the released point ŷ; with probability ≥ 1−β the ball of
	// the returned Radius around it contains ≥ t − O((1/ε)·log(n/β)) input
	// points (Lemma 3.7).
	Center vec.Vector
	// Radius is the guaranteed covering radius, OutRadiusFactor·r·√k.
	Radius float64
	// K is the projection dimension actually used.
	K int
	// Repetitions is how many random partitions were tried before
	// AboveThreshold fired.
	Repetitions int
	// BoxCount is the (non-private, diagnostic) number of points mapped to
	// the chosen box.
	BoxCount int
	// FallbackAxes counts axes resolved by the report-noisy-max fallback.
	FallbackAxes int
}

// Sentinel errors for the failure modes Lemma 3.7's hypotheses exclude.
var (
	// ErrNoCluster: AboveThreshold never fired — no random partition put
	// ≈ t projected points in one box.
	ErrNoCluster = errors.New("core: GoodCenter found no heavy box (is there a radius-r ball with t points?)")
	// ErrSelectionFailed: a stability-based choice returned ⊥.
	ErrSelectionFailed = errors.New("core: private selection returned bottom")
	// ErrNoData: the algorithm was handed an empty point set.
	ErrNoData = errors.New("core: empty point set")
)

// GoodCenterFrame implements Algorithm 2. Given a radius r such that some
// ball of radius r contains ≥ t input points, it privately releases a
// center ŷ whose O(r√k)-ball captures ≈ t points, spending the (ε, δ) in
// prm.Privacy: ε/4 on AboveThreshold, (ε/4, δ/4) on the box choice,
// (ε/4, δ/4) across the d per-axis choices, and (ε/4, δ/4) on NoisyAVG
// (Lemma 4.11).
//
// The box-partition loop keys boxes by bit-packed (else hashed) cell
// indices, with the per-repetition count pass fanned out over
// prm.Profile.Workers goroutines; neither affects the privacy analysis
// (AboveThreshold only ever sees the final per-repetition maximum) nor —
// thanks to the canonical box enumeration — the seeded output. A pass keys
// a worker's rows in one batched coder call, then counts them in an
// open-addressing countTable, which keeps first-seen order and first rows.
// The bit packing reads the frame's cached Bounds. The chosen box's member
// scan starts at its first row and stops at its count, and one pass then
// rotates each member into a d-float row and bins it on all d axes.
//
// The points arrive as a flat frame — the representation the ball indexes
// already hold, so the pipeline's hot path never materializes per-point
// slices: every pass runs on no-copy row views. The per-query buffers (box
// keys, count tables, the rotation row and sort buffers) live in a
// QueryScratch: prm.Scratch when set, making warm repeated queries allocate
// close to nothing here, else a fresh one.
func GoodCenterFrame(rng *rand.Rand, points *vec.Frame, r float64, prm Params) (CenterResult, error) {
	if points == nil || points.N() == 0 {
		return CenterResult{}, fmt.Errorf("%w: GoodCenter needs at least one point", ErrNoData)
	}
	prm.setDefaults()
	n := points.N()
	if err := prm.Validate(n); err != nil {
		return CenterResult{}, err
	}
	if r <= 0 {
		// A zero radius (GoodRadius's duplicate-cluster case) degenerates
		// the box partition; the smallest positive grid radius is the
		// correct resolution at which to hunt for the duplicates.
		r = prm.Grid.RadiusUnit()
	}
	d := prm.Grid.Dim
	if points.Dim() != d {
		return CenterResult{}, fmt.Errorf("core: points have dimension %d, grid says %d", points.Dim(), d)
	}
	t := prm.T
	eps := prm.Privacy.Epsilon
	delta := prm.Privacy.Delta
	quarter := dp.Params{Epsilon: eps / 4, Delta: delta / 4}
	beta := prm.Beta

	// Step 1: JL projection to k dimensions (identity when k ≥ d).
	k := jl.TargetDim(n, prm.Profile.JLEta, beta)
	if c := prm.Profile.JLDimCap; c > 0 && k > c {
		k = c
	}
	transform, err := jl.NewTransform(rng, d, k)
	if err != nil {
		return CenterResult{}, err
	}
	kOut := transform.OutDim()
	// The identity case (k ≥ d, the common regime after the JLDimCap)
	// aliases the input frame — no copy at all.
	proj := transform.ApplyFrame(points)

	// Steps 2–6: resample randomly shifted box partitions of R^k until
	// AboveThreshold certifies that some box holds ≈ t projected points.
	// The projected cluster has radius ≤ 3r (JL distortion with η = 1/2).
	boxSide := prm.Profile.BoxSideFactor * 3 * r
	threshold := float64(t) - prm.Profile.ThresholdSlackFactor/eps*math.Log(2*float64(n)/beta)
	at, err := svt.New(rng, threshold, eps/4)
	if err != nil {
		return CenterResult{}, err
	}
	maxReps := prm.Profile.MaxRepetitions
	if maxReps <= 0 {
		maxReps = int(math.Ceil(2 * float64(n) * math.Log(1/beta) / beta))
	}

	sc := prm.Scratch
	if sc == nil {
		sc = NewQueryScratch()
	}
	part, err := newBoxPartition(proj, boxSide, prm.Profile, sc)
	if err != nil {
		return CenterResult{}, err
	}
	fired := false
	reps := 0
	offsets := make([]float64, kOut)
	_, svtSpan := obs.StartSpan(prm.Ctx, "svt")
	for rep := 0; rep < maxReps && !fired; rep++ {
		// Each repetition is a full O(n·k) count pass, so a per-repetition
		// context check keeps cancellation latency at one pass.
		if err := prm.interrupted(); err != nil {
			svtSpan.End()
			return CenterResult{}, err
		}
		reps++
		for i := range offsets {
			offsets[i] = noise.Uniform(rng, 0, boxSide)
		}
		q := part.partition(offsets)
		fired, err = at.Query(float64(q))
		if err != nil {
			svtSpan.End()
			return CenterResult{}, err
		}
	}
	// AboveThreshold draws one threshold perturbation plus one per query.
	svtSpan.Count("repetitions", int64(reps))
	svtSpan.Count("noise_draws", int64(reps)+1)
	svtSpan.End()
	if !fired {
		return CenterResult{}, fmt.Errorf("%w after %d repetitions", ErrNoCluster, reps)
	}

	// Step 7: privately choose the heavy box of the successful partition
	// and collect the input points mapped into it.
	sel, err := part.selectBox(rng, stability.Params{Epsilon: quarter.Epsilon, Delta: quarter.Delta})
	if err != nil {
		return CenterResult{}, err
	}
	if sel.Bottom {
		return CenterResult{}, fmt.Errorf("%w: box selection", ErrSelectionFailed)
	}
	if len(sel.Members) == 0 {
		return CenterResult{}, fmt.Errorf("%w: chosen box is empty", ErrSelectionFailed)
	}
	m := len(sel.Members)

	// Steps 8–9: random rotation of R^d, then a private per-axis interval
	// choice to pin the cluster into a box of diameter O(r·√(k·log(dn/β))).
	basis, err := jl.RandomBasis(rng, d)
	if err != nil {
		return CenterResult{}, err
	}
	axisScale := float64(kOut) / float64(d)
	if prm.Profile.UseAxisLogTerm {
		axisScale *= math.Log(float64(d) * float64(n) / beta)
	}
	pLen := prm.Profile.AxisScaleFactor * r * math.Sqrt(axisScale)
	epsAxis := eps / (10 * math.Sqrt(float64(d)*math.Log(8/delta)))
	deltaAxis := delta / (8 * float64(d))

	fallbacks := 0
	_, axesSpan := obs.StartSpan(prm.Ctx, "axes")
	sc.binAxes(points, sel.Members, basis, pLen)
	boxCenterRot := make(vec.Vector, d)
	for axis := 0; axis < d; axis++ {
		if err := prm.interrupted(); err != nil {
			axesSpan.End()
			return CenterResult{}, err
		}
		keys, counts := sc.axisIntervals(axis)
		res, err := stability.ChooseIndexed(rng, counts, stability.Params{Epsilon: epsAxis, Delta: deltaAxis})
		if err != nil {
			axesSpan.End()
			return CenterResult{}, err
		}
		var j int64
		switch {
		case !res.Bottom:
			j = keys[res.Key]
		case prm.Profile.AxisFallback:
			// Practical fallback: report-noisy-max restricted to occupied
			// intervals. This keeps the ε accounting of the stability
			// choice but forgoes its δ-absorbing release threshold (the
			// threshold is what returned ⊥); see the Profile.AxisFallback
			// doc for the trade-off. Enumerating all data-independent
			// intervals instead drowns the signal: at per-axis ε ≈ ε/(10√d)
			// the Θ(√d/p) empty intervals win the noisy argmax almost
			// surely.
			j, err = axisNoisyMax(rng, keys, counts, epsAxis)
			if err != nil {
				axesSpan.End()
				return CenterResult{}, err
			}
			fallbacks++
		default:
			axesSpan.End()
			return CenterResult{}, fmt.Errorf("%w: axis %d interval", ErrSelectionFailed, axis)
		}
		// Î = the chosen interval extended by p on each side; its center is
		// the chosen interval's midpoint.
		boxCenterRot[axis] = (float64(j) + 0.5) * pLen
	}
	axesSpan.Count("axes", int64(d))
	axesSpan.Count("fallback_axes", int64(fallbacks))
	axesSpan.End()

	// Step 10: C = bounding sphere of the box with side 3p around the
	// chosen center (data-independent radius).
	center := basis.TMulVec(boxCenterRot)
	rc := 1.5 * pLen * math.Sqrt(float64(d))

	// Step 11: noisy average of the points captured by C — straight off the
	// frame's rows, no gathered slice. One noisy denominator draw plus one
	// noise draw per coordinate.
	_, avgSpan := obs.StartSpan(prm.Ctx, "noisy_average")
	avg, err := dp.NoisyAverageRows(rng, points, sel.Members, center, rc, quarter)
	avgSpan.Count("noise_draws", int64(d)+1)
	avgSpan.End()
	if err != nil {
		return CenterResult{}, err
	}
	if avg.Aborted {
		return CenterResult{}, fmt.Errorf("%w: noisy average aborted", ErrSelectionFailed)
	}
	return CenterResult{
		Center:       avg.Average,
		Radius:       prm.Profile.OutRadiusFactor * r * math.Sqrt(float64(kOut)),
		K:            kOut,
		Repetitions:  reps,
		BoxCount:     m,
		FallbackAxes: fallbacks,
	}, nil
}

// binAxes rotates each member row of points by basis into one d-float row
// and adds its interval indices ⌊x/pLen⌋ to one count table per axis. Axis
// 0 is seated in the box table (the box choice is done by now), so a fresh
// scratch grows one table fewer.
func (sc *QueryScratch) binAxes(points *vec.Frame, members []int, basis *vec.Matrix, pLen float64) {
	d := points.Dim()
	rot := slices.Grow(sc.rot[:0], d)[:d]
	for len(sc.axes) < d-1 {
		sc.axes = append(sc.axes, countTable{})
	}
	sc.hist.reset()
	for a := range sc.axes[:d-1] {
		sc.axes[a].reset()
	}
	for i, id := range members {
		basis.MulVecInto(rot, points.Row(id))
		sc.hist.add(uint64(int64(math.Floor(rot[0]/pLen))), 1, int32(i))
		for a, x := range rot[1:] {
			sc.axes[a].add(uint64(int64(math.Floor(x/pLen))), 1, int32(i))
		}
	}
	sc.rot = rot
}

// axisIntervals returns one axis's intervals binned by binAxes in ascending
// index order, with their counts: the bins, in the order, that
// stability.Choose would draw its noise over from a map. The table's
// entries are sorted in place, so it is fit only for a reset afterwards.
func (sc *QueryScratch) axisIntervals(axis int) ([]int64, []int) {
	t := &sc.hist
	if axis > 0 {
		t = &sc.axes[axis-1]
	}
	// The keys are int64 indices: sorted unsigned, the intervals left of 0
	// would enumerate after those right of it.
	slices.SortFunc(t.entries, func(x, y countEntry) int { return cmp.Compare(int64(x.key), int64(y.key)) })
	keys, counts := sc.axisKeys[:0], sc.axisCounts[:0]
	for _, en := range t.entries {
		keys = append(keys, int64(en.key))
		counts = append(counts, en.count)
	}
	sc.axisKeys, sc.axisCounts = keys, counts
	return keys, counts
}

// axisNoisyMax selects an interval index by report-noisy-max over the
// occupied intervals keys (ascending, as axisIntervals returns them) with
// their counts, so the noise draws follow the index order.
func axisNoisyMax(rng *rand.Rand, keys []int64, counts []int, eps float64) (int64, error) {
	scores := make([]float64, len(counts))
	for i, c := range counts {
		scores[i] = float64(c)
	}
	idx, err := dp.ReportNoisyMax(rng, scores, 1, eps)
	if err != nil {
		return 0, err
	}
	return keys[idx], nil
}
