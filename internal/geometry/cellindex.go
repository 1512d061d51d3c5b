package geometry

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"privcluster/internal/obs"
	"privcluster/internal/vec"
)

// Cell-level cache lookups by result: "build" counts levels materialized,
// "hit" counts lookups served by an already built level. A sweep over an
// index whose levels are all built adds only hits.
var (
	statCellLevelHit = obs.Default.Counter("privcluster_cell_level_total",
		"Cell-level lookups by result (hit = already built).", "result", "hit")
	statCellLevelBuild = obs.Default.Counter("privcluster_cell_level_total",
		"Cell-level lookups by result (hit = already built).", "result", "build")
)

// CellIndexOptions tunes the scalable cell-grid ball index. The zero value
// selects defaults suitable for inputs in the unit cube on a 2¹⁶-per-axis
// grid; callers with a concrete Grid should set MinRadius to
// Grid.RadiusUnit() and MaxRadius to Grid.MaxDistance() so the radius
// ladder matches the radius grid GoodRadius searches.
type CellIndexOptions struct {
	// MinRadius is the resolution floor of the radius ladder: radii below
	// it are answered as if they were 0 by the L estimators. For
	// grid-quantized inputs (minimum nonzero pairwise distance 2·RadiusUnit)
	// setting MinRadius = Grid.RadiusUnit() loses nothing.
	// Default: MaxRadius / 2¹⁷.
	MinRadius float64
	// MaxRadius is the largest radius the ladder must cover; it is expanded
	// to the data's bounding-box diagonal if that is larger (which cannot
	// happen for in-contract inputs in [0,1]^d with the default).
	// Default: √d.
	MaxRadius float64
	// LevelsPerOctave is the ladder density: consecutive ladder radii have
	// ratio 2^(1/LevelsPerOctave). Higher values shrink the radius
	// discretization error of BuildLStep at a linear cost in
	// preprocessing. Default: 2 (ratio √2).
	LevelsPerOctave int
	// CellsPerRadius is the cell granularity: a query at radius r uses cells
	// of side ≈ r/CellsPerRadius. Higher values shrink the center-rule
	// count slack h ≈ √d/(2·CellsPerRadius)·r at a cost of up to
	// (2·CellsPerRadius+3)^(d−1) member rows joined per source row. It is
	// raised to ⌈√d⌉ when below it (keeping h ≤ r/2). Default: 4.
	CellsPerRadius int
	// Workers bounds the worker pool of the bulk count passes.
	// Default: GOMAXPROCS.
	Workers int

	// skipDupTable elides the O(n log n) duplicate-table sort. Package
	// internal, for composite indexes (LocalShard, the epoch views) that
	// keep their own table of one row set against another, where this
	// index's would be dead weight on the cold-build path. With it set,
	// BuildLStep must not be called on this index — only the cell levels
	// and the count passes are valid.
	skipDupTable bool
}

func (o CellIndexOptions) withDefaults(dim int) CellIndexOptions {
	if o.MaxRadius <= 0 {
		o.MaxRadius = math.Sqrt(float64(dim))
	}
	if o.MinRadius <= 0 {
		o.MinRadius = o.MaxRadius / (1 << 17)
	}
	if o.MinRadius > o.MaxRadius {
		o.MinRadius = o.MaxRadius
	}
	if o.LevelsPerOctave < 1 {
		o.LevelsPerOctave = 2
	}
	if o.CellsPerRadius < 1 {
		o.CellsPerRadius = 4
	}
	if m := int(math.Ceil(math.Sqrt(float64(dim)))); o.CellsPerRadius < m {
		o.CellsPerRadius = m
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// CellIndex is the scalable BallIndex backend: points are bucketed into a
// grid of cells, one flat sorted cell level per radius scale, built lazily
// and kept. A count pass joins each row of occupied source cells against
// the occupied member rows within reach (see joinPass) and resolves member
// cells at cell granularity by the center rule: all of a cell's points
// count when the cell center lies in the ball, none otherwise (so cells
// wholly inside the ball count in full, summed a run at a time, and cells
// wholly outside not at all). A source cell of isolated points skips the
// join: by its isolation bound each point is farther than r + side·√d/2
// from every point not identical to it, while every point of a member cell
// the center rule counts lies within that distance, so only the point's
// own cell can count, and the duplicate table sizes it (joinPass.countTask).
// The skip is exact: it changes no count.
//
// Approximation contract: CellIndex answers only BuildLStep, and its L̂ is
// an estimate. Radius 0 is exact (the duplicate table). At a ladder radius
// r the center-rule count B̂_r satisfies B_{r−h} ≤ B̂_r ≤ B_{r+h} with
// h ≤ √d/(2·CellsPerRadius)·ρ·r, where ρ = 2^(1/LevelsPerOctave) is the
// ladder ratio, so L̂(r) is sandwiched between L(r−h) and L(r+h); between
// ladder radii the step function holds the last level's value. Crucially,
// whether a point y contributes to the estimated count around x depends
// only on the positions of x and y (never on other points), so L̂ keeps the
// sensitivity-2 property of Lemma 4.5 that GoodRadius's privacy analysis
// needs. Exact ball queries are the DistanceIndex's job.
//
// Memory is O(L·n) for the L ladder levels a sweep has built (each level is
// 4n bytes of row ids plus 8d+4 bytes per occupied cell, and is kept for
// the index's lifetime, so later sweeps rebuild nothing), on top of the
// O(n·d) points, the duplicate table and the isolation bounds (12n bytes),
// versus the Θ(n²) of DistanceIndex; each count-pass worker adds a pooled
// band table of at most 16 KB. A Dataset handle over n = 10⁵ points in
// d = 2, primed by one query, holds about 50 MB of heap in all, 0.8 MB of
// it isolation bounds (measured on amd64). Bulk passes are
// parallelized across Options.Workers cores with the same worker-pool
// pattern NewDistanceIndexFrame uses. CellIndex is safe for concurrent use.
type CellIndex struct {
	frame *vec.Frame
	dim   int
	opts  CellIndexOptions

	// dupCount[i] is the number of input points identical to row i
	// (≥ 1): the exact B_0 counts, kept separately because cell pruning
	// cannot resolve radius 0. isoSq[i] is row i's isolation bound (see
	// dupTable).
	dupCount []int32
	isoSq    []float64

	lad radiusLadder

	// scratch pools the per-worker count-pass buffers so repeated passes
	// (a BuildLStep ladder sweep runs one per level) allocate none.
	scratch sync.Pool

	mu     sync.Mutex
	levels []*cellLevel // levels[j]: ladder level j once built (len lad.top+1)
}

// radiusLadder is the geometric radius ladder of the scalable backends: the
// levels MinRadius·ρ^j the L estimators sweep. It is a pure function of
// (CellIndexOptions, dim, data diameter), factored out so ShardedIndex can
// pin every shard to exactly the ladder the unsharded CellIndex would
// build — the invariant its exact-sum equivalence rests on.
type radiusLadder struct {
	minR  float64
	maxR  float64 // ladder top ≥ max(opts.MaxRadius, data diameter)
	stopR float64 // radius at which the L estimator provably saturates
	ratio float64 // ladder ratio ρ
	top   int     // largest ladder level index
}

// maxLadderLevels caps the ladder depth an index accepts. The options
// arrive over the shard wire, and a ladder is sized up front and swept
// level by level, so an absurd LevelsPerOctave or a subnormal MinRadius
// would otherwise ask for billions of levels. The default ladder (two
// levels per octave) at the finest int64 grid (MinRadius 2⁻⁶⁴) has fewer
// than 200 levels in any dimension the wire carries; the cap leaves room
// for ladders five times as dense.
const maxLadderLevels = 1024

// newRadiusLadder derives the ladder from defaulted options and the data's
// bounding-box diagonal. The ladder must reach past the diameter so the L
// estimator provably saturates; for in-contract inputs (unit cube) the
// diagonal never exceeds the default MaxRadius = √d, so the ladder stays
// data-independent. Non-finite radii and ladders deeper than
// maxLadderLevels are errors.
func newRadiusLadder(opts CellIndexOptions, dim int, diag float64) (radiusLadder, error) {
	l := radiusLadder{
		minR:  opts.MinRadius,
		maxR:  opts.MaxRadius,
		ratio: math.Pow(2, 1/float64(opts.LevelsPerOctave)),
	}
	if diag > l.maxR {
		l.maxR = diag
	}
	if math.IsNaN(l.minR) || math.IsInf(l.minR, 0) || math.IsNaN(l.maxR) || math.IsInf(l.maxR, 0) {
		return radiusLadder{}, fmt.Errorf("geometry: radius ladder needs finite radii, got [%g, %g]", l.minR, l.maxR)
	}
	// At r ≥ stopR every cell center is within r of every point
	// (diam + h(r) ≤ r), so every estimated count is n.
	slack := 1 - math.Sqrt(float64(dim))/(2*float64(opts.CellsPerRadius))
	l.stopR = l.maxR / slack
	if l.stopR > l.minR {
		top := math.Ceil(math.Log(l.stopR/l.minR) / math.Log(l.ratio))
		if !(top < maxLadderLevels) { // also catches an overflowed +Inf
			return radiusLadder{}, fmt.Errorf("geometry: radius ladder [%g, %g] at %d levels per octave exceeds %d levels",
				l.minR, l.stopR, opts.LevelsPerOctave, maxLadderLevels)
		}
		l.top = int(top)
	}
	return l, nil
}

// radius returns ladder radius j: MinRadius·ρ^j.
func (l radiusLadder) radius(j int) float64 {
	return l.minR * math.Pow(l.ratio, float64(j))
}

// cellLevel is the cell index at one radius scale, stored flat: the nb
// occupied cells sorted lexicographically by coordinates with axis 0
// fastest-varying, so that the cells sharing axes 1..d−1 form one
// contiguous row, ascending along axis 0: the count pass joins rows against
// rows, found by galloping search, instead of probing candidate cells (most
// of which are empty). Cell c has integer coordinates
// coords[c·d:(c+1)·d] (it spans [coord·side, (coord+1)·side) per axis) and
// holds the rows ids[start[c]:start[c+1]], ascending. A level takes a constant number of
// allocations, whatever its cell count, and 8·d·nb + 4·nb + 4·n bytes.
type cellLevel struct {
	side   float64
	dim    int
	coords []int64 // nb·d cell coordinates, cell-major
	start  []int32 // nb+1 offsets into ids
	ids    []int32 // the n row ids, grouped by cell
	// lo, hi bound the occupied cell coordinates per axis: the row join
	// clamps its member-row box to them and skips, in O(d), a member group
	// whose (spatially compact) cells a source row cannot reach.
	lo, hi []int64
}

// cells returns the number of occupied cells.
func (lv *cellLevel) cells() int { return len(lv.start) - 1 }

// coord returns cell c's coordinates (a view into the level).
func (lv *cellLevel) coord(c int) []int64 { return lv.coords[c*lv.dim : (c+1)*lv.dim] }

// members returns the ascending row ids of cell c (a view into the level).
func (lv *cellLevel) members(c int) []int32 { return lv.ids[lv.start[c]:lv.start[c+1]] }

// size returns the number of points in cell c.
func (lv *cellLevel) size(c int) int32 { return lv.start[c+1] - lv.start[c] }

// NewCellIndexFrame builds the scalable index directly over a Frame without
// copying it. The index aliases the frame: the caller must not mutate rows
// afterwards.
func NewCellIndexFrame(f *vec.Frame, opts CellIndexOptions) (*CellIndex, error) {
	if f == nil || f.N() == 0 {
		return nil, fmt.Errorf("geometry: cell index over empty point set")
	}
	d := f.Dim()
	opts = opts.withDefaults(d)
	ix := &CellIndex{
		frame: f,
		dim:   d,
		opts:  opts,
	}
	ix.scratch.New = func() any { return newCellScratch(d) }

	// The data's bounding box, then the exact duplicate table (the radius-0
	// counts) and the isolation bounds unless the caller keeps its own.
	lo, hi := f.Bounds()
	if !opts.skipDupTable {
		ix.dupCount, ix.isoSq = dupTable(f, f, nil, true)
	}

	lad, err := newRadiusLadder(opts, d, vec.Vector(hi).Dist(lo))
	if err != nil {
		return nil, err
	}
	ix.lad = lad
	ix.levels = make([]*cellLevel, ix.lad.top+1)
	return ix, nil
}

// growBox widens the box [lo, hi] in place to cover every row of f.
func growBox(lo, hi vec.Vector, f *vec.Frame) {
	for i := 0; i < f.N(); i++ {
		for a, x := range f.Row(i) {
			if x < lo[a] {
				lo[a] = x
			}
			if x > hi[a] {
				hi[a] = x
			}
		}
	}
}

// N returns the number of indexed points.
func (ix *CellIndex) N() int { return ix.frame.N() }

// Frame returns the indexed point store (not a copy).
func (ix *CellIndex) Frame() *vec.Frame { return ix.frame }

// level returns (building on first use) the cell level for ladder level j,
// which must lie in [0, lad.top]. Built levels are kept for the index's
// lifetime: every sweep walks the same fixed ladder, so a level dropped
// would only be rebuilt by the next sweep.
func (ix *CellIndex) level(j int) *cellLevel {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if lv := ix.levels[j]; lv != nil {
		statCellLevelHit.Inc()
		return lv
	}
	statCellLevelBuild.Inc()
	sc := ix.getScratch()
	lv := newCellLevel(ix.frame, ix.lad.radius(j)/float64(ix.opts.CellsPerRadius), sc)
	ix.putScratch(sc)
	ix.levels[j] = lv
	return lv
}

// checkLevel rejects a ladder level outside [0, lad.top]. Levels arrive
// over the shard wire, and every built level is retained, so an
// out-of-ladder level must never reach the cache.
func (ix *CellIndex) checkLevel(j int) error {
	if j < 0 || j > ix.lad.top {
		return fmt.Errorf("geometry: ladder level %d out of [0,%d]", j, ix.lad.top)
	}
	return nil
}

// cachedLevelKeys returns the ladder levels currently materialized,
// ascending — what a background merge pre-warms on a replacement index so
// the atomic swap never moves a level build onto the query path.
func (ix *CellIndex) cachedLevelKeys() []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var keys []int
	for j, lv := range ix.levels {
		if lv != nil {
			keys = append(keys, j)
		}
	}
	return keys
}

// newCellLevel buckets f's rows into cells of the given side. Each row's
// cell coordinates are computed once; the row ids are then sorted by (cell
// coordinates in cmpCoords order, row id), so the cells come out in scan
// order with their members ascending, and one pass over the sorted ids
// emits the flat layout. With its working buffers in sc, a level takes
// three allocations: itself, an int64 slab (coords, lo, hi) and an int32
// slab (ids, start).
func newCellLevel(f *vec.Frame, side float64, sc *cellScratch) *cellLevel {
	n, d := f.N(), f.Dim()
	pc := scratchOf(&sc.pc, n*d) // row i's cell coordinates are pc[i·d:(i+1)·d]
	for i := 0; i < n; i++ {
		c := pc[i*d : (i+1)*d]
		for a, x := range f.Row(i) {
			c[a] = int64(math.Floor(x / side))
		}
	}
	lo, hi := sc.lo, sc.hi
	copy(lo, pc[:d])
	copy(hi, pc[:d])
	for i := d; i < len(pc); i++ {
		a := i % d
		lo[a] = min(lo[a], pc[i])
		hi[a] = max(hi[a], pc[i])
	}

	ids := sortByCell(pc, d, lo, hi, sc)
	rowCoord := func(id int32) []int64 { return pc[int(id)*d : int(id+1)*d] }
	nb := 1
	for k := 1; k < n; k++ {
		if !slices.Equal(rowCoord(ids[k-1]), rowCoord(ids[k])) {
			nb++
		}
	}
	slab, slab32 := make([]int64, (nb+2)*d), make([]int32, n+nb+1)
	lv := &cellLevel{side: side, dim: d, coords: slab[: 0 : nb*d], lo: slab[nb*d : (nb+1)*d], hi: slab[(nb+1)*d:],
		ids: slab32[:n:n], start: slab32[n:n]}
	copy(lv.lo, lo)
	copy(lv.hi, hi)
	copy(lv.ids, ids)
	for k, id := range ids {
		if k == 0 || !slices.Equal(rowCoord(ids[k-1]), rowCoord(id)) {
			lv.coords = append(lv.coords, rowCoord(id)...)
			lv.start = append(lv.start, int32(k))
		}
	}
	lv.start = append(lv.start, int32(n))
	return lv
}

// sortByCell returns the row ids 0..n−1 sorted by (cell coordinates in
// cmpCoords order, row id), where row i's coordinates are pc[i·d:(i+1)·d]
// and lie in the box [lo, hi]. It is a stable LSD radix sort over the
// coordinates' offsets from lo, one byte per pass: axis 0's bytes first and
// axis d−1's last (so axis d−1 ends most significant, as in cmpCoords), and
// the initial ascending id order breaks ties. Passes stop at the highest
// byte of each axis's span, and a pass whose byte is the same for every row
// is skipped, so a coarse level costs one pass per axis. The returned ids
// live in sc.
func sortByCell(pc []int64, d int, lo, hi []int64, sc *cellScratch) []int32 {
	n := len(pc) / d
	rows, keys := scratchOf(&sc.rows, 2*n), scratchOf(&sc.keys, 2*n)
	ids, idsTmp := rows[:n], rows[n:]
	for i := range ids {
		ids[i] = int32(i)
	}
	key, keyTmp := keys[:n], keys[n:]
	for a := 0; a < d; a++ {
		for k, id := range ids {
			key[k] = uint64(pc[int(id)*d+a] - lo[a])
		}
		span := uint64(hi[a] - lo[a])
		for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
			var pos [256]int
			for _, u := range key {
				pos[(u>>shift)&0xff]++
			}
			if pos[(key[0]>>shift)&0xff] == n {
				continue // one digit value: the pass would not move anything
			}
			sum := 0
			for b, c := range pos {
				pos[b] = sum
				sum += c
			}
			for k, u := range key {
				b := (u >> shift) & 0xff
				idsTmp[pos[b]], keyTmp[pos[b]] = ids[k], u
				pos[b]++
			}
			ids, idsTmp = idsTmp, ids
			key, keyTmp = keyTmp, key
		}
	}
	return ids
}

// cmpCoords orders cell coordinates lexicographically with the highest
// axis most significant (axis 0 varies fastest in the sorted order).
func cmpCoords(a, b []int64) int {
	for x := len(a) - 1; x >= 0; x-- {
		switch {
		case a[x] < b[x]:
			return -1
		case a[x] > b[x]:
			return 1
		}
	}
	return 0
}

// countChunk is the number of source cells one count-pass task takes.
const countChunk = 64

// cellScratch holds per-worker count-pass buffers: the higher-axis box and
// the gallop keys of the row join, the per-source-cell accumulator of one
// task and the band table of one pass (see joinPass). All are allocated
// once per scratch (the table regrows only for a pass that needs more
// entries), so a warm pass allocates nothing per cell or row. A level
// build borrows lo and hi and keeps its row coordinates, sort keys and
// row ids in pc, keys and rows, grown to the largest level built.
type cellScratch struct {
	lo, hi, key, seek []int64
	acc, inside       []int32    // inside: extendCounts' per-cell sums, zero between passes
	bands, near, runs [][2]int64 // near: rowsNear's rows; runs: the cells extendCounts merged
	pc                []int64
	keys              []uint64
	rows              []int32
}

// scratchOf returns (*buf)[:n], regrowing *buf when it is too short.
func scratchOf[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

func newCellScratch(d int) *cellScratch {
	buf := make([]int64, 4*d)
	return &cellScratch{lo: buf[:d], hi: buf[d : 2*d], key: buf[2*d : 3*d], seek: buf[3*d:],
		acc: make([]int32, countChunk)}
}

// getScratch and putScratch recycle cellScratch values across count passes.
func (ix *CellIndex) getScratch() *cellScratch   { return ix.scratch.Get().(*cellScratch) }
func (ix *CellIndex) putScratch(sc *cellScratch) { ix.scratch.Put(sc) }

// bucketCount returns how many of a cell's size points count as within
// distance √rsq of p, resolved at cell granularity by the center rule alone:
// all points count when the cell center lies in the ball, none otherwise —
// the deterministic pair rule the L estimators need (see the CellIndex doc).
// Cells wholly inside the ball count in full and cells wholly outside not at
// all, even in floating point: the computed center lies in the computed cell
// box (float multiplication and addition are monotone), and subtraction,
// squaring and summation in the same axis order are monotone too, so the
// computed center distance never falls below the computed min distance to
// the box nor exceeds the computed max distance.
func bucketCount(coord []int64, size int32, side float64, p vec.Vector, rsq float64) int32 {
	var dcSq float64
	for a := range p {
		dc := p[a] - (float64(coord[a])+0.5)*side
		dcSq += dc * dc
	}
	if dcSq <= rsq {
		return size
	}
	return 0
}

// gallop returns the first cell at or after from whose coordinates are
// ≥ key in cmpCoords order (cells() when there is none), given that every
// cell before from sorts below key. It probes from, from+1, from+3, from+7, …
// and binary-searches the last gap, so an answer k cells on costs O(log k)
// compares.
func (lv *cellLevel) gallop(from int, key []int64) int {
	nb := lv.cells()
	lo, hi := from, from
	for step := 1; hi < nb && cmpCoords(lv.coord(hi), key) < 0; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, nb)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpCoords(lv.coord(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefixEqual reports whether a and b agree on every axis above 0.
func prefixEqual(a, b []int64) bool {
	for x := len(a) - 1; x >= 1; x-- {
		if a[x] != b[x] {
			return false
		}
	}
	return true
}

// topTAvg returns the average of the t = len(hist)−1 largest values (each
// clamped to [0, t]) via one counting pass into hist — O(n + t), no sort.
func topTAvg(counts, hist []int32) float64 {
	t := len(hist) - 1
	clear(hist)
	for _, c := range counts {
		if c > int32(t) {
			c = int32(t)
		}
		if c < 0 {
			c = 0
		}
		hist[c]++
	}
	remaining := int32(t)
	sum := 0.0
	for v := t; v >= 0 && remaining > 0; v-- {
		k := hist[v]
		if k > remaining {
			k = remaining
		}
		sum += float64(k) * float64(v)
		remaining -= k
	}
	return sum / float64(t)
}

// BuildLStep constructs the approximate L(·, S) step function by sweeping
// the radius ladder instead of the Θ(n²) pairwise distances (see
// sweepLStep), each level counted by crossCellCounts with the index as its
// own single source and member group. Runtime
// O(n·(2·CellsPerRadius+2)^d) per ladder level over Workers cores, plus a
// one-off O(n·d) build per level the index has not built yet; memory O(n)
// per retained level.
func (ix *CellIndex) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	self := []cellGroup{{ix: ix, dups: ix.dupCount, isoSq: ix.isoSq}}
	return sweepLStep(ctx, ix.N(), t, ix.dupCount, ix.lad, func(ctx context.Context, j int, r float64, limit int32, out []int32) error {
		return crossCellCounts(ctx, ix.opts.Workers, self, self, j, r, limit, out)
	})
}

// levelCounter fills out, zeroed and of length n, with the capped within-r
// count of every point at ladder level j (radius r).
type levelCounter func(ctx context.Context, j int, r float64, limit int32, out []int32) error

// sweepLStep is the one ladder sweep behind every scalable BuildLStep:
// radius 0 is answered exactly from dup (the duplicate table), every ladder
// radius gets count's cell-granularity estimate (clipped to stay
// monotone), and the sweep stops as soon as L saturates at t — guaranteed
// at the ladder top, which covers the data diameter plus the center-rule
// slack. All levels share one count buffer and one histogram. ctx
// cancellation aborts between (and inside) ladder levels — this sweep is
// the dominant per-query cost at scale. The levels swept are reported to
// the current trace span as sweep_levels.
func sweepLStep(ctx context.Context, n, t int, dup []int32, lad radiusLadder, count levelCounter) (*LStep, error) {
	ctx = ctxOrBackground(ctx)
	if t < 1 || t > n {
		return nil, fmt.Errorf("geometry: BuildLStep t=%d out of [1,%d]", t, n)
	}
	// Radius 0 plus at most one break per ladder level: the lists never
	// regrow.
	l := &LStep{T: t, Breaks: make([]float64, 1, lad.top+2), Vals: make([]float64, 1, lad.top+2)}
	hist := make([]int32, t+1) // topTAvg's histogram, shared by every level
	prev := topTAvg(dup, hist)
	l.Vals[0] = prev
	counts := make([]int32, n)
	// Every ladder level is visited in order and the recorded function is
	// the running max of the per-level estimates (run-length encoded: equal
	// values add no break). The per-level estimate is NOT monotone across
	// levels — a coarser level can round a neighbor's cell center out of
	// the ball that a finer level included — so shortcuts that skip levels
	// based on probed values (e.g. binary-searching the first level that
	// moves) would both drop breakpoints and, worse, make the *set* of
	// recorded levels data-dependent, which breaks the sensitivity-2
	// argument. The running max over the full, fixed ladder keeps it: each
	// level's estimate has sensitivity ≤ 2 under the deterministic pair
	// rule, and a pointwise max of sensitivity-2 values has sensitivity
	// ≤ 2.
	levels := 0
	for j := 0; j <= lad.top && prev < float64(t); j++ {
		r := lad.radius(j)
		clear(counts)
		if err := count(ctx, j, r, int32(t), counts); err != nil {
			return nil, err
		}
		levels++
		v := topTAvg(counts, hist)
		if v > prev {
			l.Breaks = append(l.Breaks, r)
			l.Vals = append(l.Vals, v)
			prev = v
		}
	}
	obs.CurrentSpan(ctx).Count("sweep_levels", int64(levels))
	return l, nil
}
