package geometry

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"privcluster/internal/vec"
)

// CellIndexOptions tunes the scalable cell-hash ball index. The zero value
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
	// count slack h ≈ √d/(2·CellsPerRadius)·r at a cost of
	// (2·CellsPerRadius+2)^d candidate cells per query. It is raised to
	// ⌈√d⌉ when below it (keeping h ≤ r/2). Default: 4.
	CellsPerRadius int
	// Workers bounds the worker pool of the bulk count passes.
	// Default: GOMAXPROCS.
	Workers int
	// MaxCachedLevels bounds how many cell-hash levels (O(n) memory each)
	// are kept alive; least recently built levels are dropped first.
	// Default: 8.
	MaxCachedLevels int

	// skipDupTable elides the O(n)-allocation duplicate table. Package
	// internal, for composite indexes (ShardedIndex) that maintain their
	// own global table: a per-shard table cannot see cross-shard
	// duplicates and would be dead weight on the cold-build path. With it
	// set, BuildLStep must not be called on this index — only the cell
	// levels and the count passes are valid.
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
	if o.MaxCachedLevels < 1 {
		o.MaxCachedLevels = 8
	}
	return o
}

// CellIndex is the scalable BallIndex backend: points are bucketed into a
// hashed grid of cells ("cell hash"), one hash per radius scale, built
// lazily. A count pass visits, per occupied source cell, only the candidate
// cells intersecting the ball's bounding box (or, when fewer, the occupied
// cells) and resolves them at cell granularity: cells whose axis-aligned
// box lies entirely inside the ball contribute their stored count, cells
// entirely outside are skipped, and boundary cells follow the center rule
// (all of their points count when the cell center lies in the ball, none
// otherwise).
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
// Memory is O(n·d) (the points, the duplicate table, and at most
// MaxCachedLevels transient cell hashes of O(n) entries each), versus the
// Θ(n²) of DistanceIndex. Bulk passes are parallelized across
// Options.Workers cores with the same worker-pool pattern NewDistanceIndex
// uses. CellIndex is safe for concurrent use.
type CellIndex struct {
	frame *vec.Frame
	dim   int
	opts  CellIndexOptions

	// dupCount[i] is the number of input points identical to row i
	// (≥ 1): the exact B_0 counts, kept separately because cell pruning
	// cannot resolve radius 0.
	dupCount []int32

	lad radiusLadder

	// scratch pools the per-worker query buffers so repeated count passes
	// (a BuildLStep ladder sweep runs one per level) allocate no new
	// odometer state.
	scratch sync.Pool

	mu     sync.Mutex
	levels map[int]*cellLevel
	order  []int // FIFO of built levels for eviction
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

// newRadiusLadder derives the ladder from defaulted options and the data's
// bounding-box diagonal. The ladder must reach past the diameter so the L
// estimator provably saturates; for in-contract inputs (unit cube) the
// diagonal never exceeds the default MaxRadius = √d, so the ladder stays
// data-independent.
func newRadiusLadder(opts CellIndexOptions, dim int, diag float64) radiusLadder {
	l := radiusLadder{
		minR:  opts.MinRadius,
		maxR:  opts.MaxRadius,
		ratio: math.Pow(2, 1/float64(opts.LevelsPerOctave)),
	}
	if diag > l.maxR {
		l.maxR = diag
	}
	// At r ≥ stopR every cell center is within r of every point
	// (diam + h(r) ≤ r), so every estimated count is n.
	slack := 1 - math.Sqrt(float64(dim))/(2*float64(opts.CellsPerRadius))
	l.stopR = l.maxR / slack
	if l.stopR > l.minR {
		l.top = int(math.Ceil(math.Log(l.stopR/l.minR) / math.Log(l.ratio)))
	}
	return l
}

// radius returns ladder radius j: MinRadius·ρ^j.
func (l radiusLadder) radius(j int) float64 {
	return l.minR * math.Pow(l.ratio, float64(j))
}

// cellBucket is one occupied cell: its integer coordinates (cell a spans
// [coord·side, (coord+1)·side) per axis) and the indices of the points in
// it.
type cellBucket struct {
	coord []int64
	ids   []int32
}

// cellLevel is the cell index at one radius scale: the occupied cells,
// sorted lexicographically by coordinates with axis 0 fastest-varying, so
// that a query block resolves into one contiguous range scan per axis-0 run
// (a binary search each) instead of a hash probe per candidate cell — the
// dominant cost at scale, since most candidate cells are empty.
type cellLevel struct {
	side    float64
	buckets []cellBucket
	// lo, hi bound the occupied cell coordinates per axis — the O(1)
	// intersection prefilter the sharded cross pass uses to skip member
	// shards whose (spatially compact) cells cannot reach a source cell.
	lo, hi []int64
}

// NewCellIndexFrame builds the scalable index directly over a Frame without
// copying it. The index aliases the frame: the caller must not mutate rows
// afterwards.
func NewCellIndexFrame(f *vec.Frame, opts CellIndexOptions) (*CellIndex, error) {
	if f == nil || f.N() == 0 {
		return nil, fmt.Errorf("geometry: cell index over empty point set")
	}
	n, d := f.N(), f.Dim()
	opts = opts.withDefaults(d)
	ix := &CellIndex{
		frame:  f,
		dim:    d,
		opts:   opts,
		levels: make(map[int]*cellLevel),
	}
	ix.scratch.New = func() any { return newCellScratch(d) }

	// Exact duplicate table (the radius-0 counts) and the data's bounding
	// box in one pass (box only when the caller keeps its own table).
	var rowBuf vec.Vector
	if f.Precision() == vec.Float32 {
		rowBuf = make(vec.Vector, d)
	}
	first := f.RowView(0, rowBuf)
	lo, hi := first.Clone(), first.Clone()
	if opts.skipDupTable {
		for i := 0; i < n; i++ {
			p := f.RowView(i, rowBuf)
			for a, x := range p {
				if x < lo[a] {
					lo[a] = x
				}
				if x > hi[a] {
					hi[a] = x
				}
			}
		}
	} else {
		dups := make(map[string]int32, n)
		keys := make([]string, n)
		buf := make([]byte, 0, 8*d)
		for i := 0; i < n; i++ {
			p := f.RowView(i, rowBuf)
			for a, x := range p {
				if x < lo[a] {
					lo[a] = x
				}
				if x > hi[a] {
					hi[a] = x
				}
			}
			k := string(f.AppendRowKey(buf[:0], i))
			keys[i] = k
			dups[k]++
		}
		ix.dupCount = make([]int32, n)
		for i, k := range keys {
			ix.dupCount[i] = dups[k]
		}
	}

	ix.lad = newRadiusLadder(opts, d, hi.Dist(lo))
	return ix, nil
}

// N returns the number of indexed points.
func (ix *CellIndex) N() int { return ix.frame.N() }

// Frame returns the indexed point store (not a copy).
func (ix *CellIndex) Frame() *vec.Frame { return ix.frame }

// levelRadius returns ladder radius j: MinRadius·ρ^j.
func (ix *CellIndex) levelRadius(j int) float64 { return ix.lad.radius(j) }

// level returns (building lazily) the cell hash for ladder level j.
func (ix *CellIndex) level(j int) *cellLevel {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if lv, ok := ix.levels[j]; ok {
		return lv
	}
	lv := newCellLevel(ix.frame, ix.levelRadius(j)/float64(ix.opts.CellsPerRadius))
	ix.levels[j] = lv
	ix.order = append(ix.order, j)
	if len(ix.order) > ix.opts.MaxCachedLevels {
		evict := ix.order[0]
		ix.order = ix.order[1:]
		delete(ix.levels, evict)
	}
	return lv
}

// cachedLevelKeys returns the ladder levels currently materialized, oldest
// first — what a background merge pre-warms on a replacement index so the
// atomic swap never moves a level build onto the query path.
func (ix *CellIndex) cachedLevelKeys() []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return append([]int(nil), ix.order...)
}

func newCellLevel(f *vec.Frame, side float64) *cellLevel {
	n, d := f.N(), f.Dim()
	lv := &cellLevel{side: side}
	index := make(map[string]int32, n)
	buf := make([]byte, 8*d)
	coord := make([]int64, d)
	var rowBuf vec.Vector
	if f.Precision() == vec.Float32 {
		rowBuf = make(vec.Vector, d)
	}
	for i := 0; i < n; i++ {
		p := f.RowView(i, rowBuf)
		for a, x := range p {
			coord[a] = int64(math.Floor(x / side))
		}
		encodeCoords(buf, coord)
		bi, ok := index[string(buf)]
		if !ok {
			bi = int32(len(lv.buckets))
			index[string(buf)] = bi
			lv.buckets = append(lv.buckets, cellBucket{coord: append([]int64(nil), coord...)})
		}
		lv.buckets[bi].ids = append(lv.buckets[bi].ids, int32(i))
	}
	sort.Slice(lv.buckets, func(i, j int) bool {
		return cmpCoords(lv.buckets[i].coord, lv.buckets[j].coord) < 0
	})
	lv.lo = append([]int64(nil), lv.buckets[0].coord...)
	lv.hi = append([]int64(nil), lv.buckets[0].coord...)
	for _, b := range lv.buckets[1:] {
		for a, c := range b.coord {
			if c < lv.lo[a] {
				lv.lo[a] = c
			}
			if c > lv.hi[a] {
				lv.hi[a] = c
			}
		}
	}
	return lv
}

func encodeCoords(buf []byte, coord []int64) {
	for a, c := range coord {
		binary.LittleEndian.PutUint64(buf[8*a:], uint64(c))
	}
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

// cellScratch holds per-worker query buffers: the odometer state of the
// candidate enumeration plus two row-decode buffers (center for synthetic
// query points, row for float32 source-row decoding). All count passes
// thread one of these through, so a warm pass allocates nothing per cell.
type cellScratch struct {
	buf         []byte
	lo, hi, cur []int64
	center      vec.Vector
	row         vec.Vector
}

func newCellScratch(d int) *cellScratch {
	return &cellScratch{
		buf:    make([]byte, 8*d),
		lo:     make([]int64, d),
		hi:     make([]int64, d),
		cur:    make([]int64, d),
		center: make(vec.Vector, d),
		row:    make(vec.Vector, d),
	}
}

// getScratch and putScratch recycle cellScratch values across count passes.
func (ix *CellIndex) getScratch() *cellScratch   { return ix.scratch.Get().(*cellScratch) }
func (ix *CellIndex) putScratch(sc *cellScratch) { ix.scratch.Put(sc) }

// bucketCount returns how many points of bucket b count as within distance
// √rsq of p, resolved at cell granularity: cells whose AABB is entirely
// inside the ball contribute their full count, cells entirely outside
// contribute nothing, and boundary cells follow the center rule (all points
// count when the cell center lies in the ball; the deterministic pair rule
// the L estimators need — see the CellIndex doc).
func bucketCount(b *cellBucket, side float64, p vec.Vector, rsq float64) int32 {
	var minSq, maxSq float64
	for a := 0; a < len(p); a++ {
		cellLo := float64(b.coord[a]) * side
		cellHi := cellLo + side
		var dmin float64
		switch {
		case p[a] < cellLo:
			dmin = cellLo - p[a]
		case p[a] > cellHi:
			dmin = p[a] - cellHi
		}
		minSq += dmin * dmin
		if minSq > rsq {
			return 0 // entirely outside
		}
		dmax := p[a] - cellLo
		if other := cellHi - p[a]; other > dmax {
			dmax = other
		}
		maxSq += dmax * dmax
	}
	if maxSq <= rsq { // entirely inside
		return int32(len(b.ids))
	}
	var dcSq float64 // boundary cell: center rule
	for a := 0; a < len(p); a++ {
		dc := p[a] - (float64(b.coord[a])+0.5)*side
		dcSq += dc * dc
	}
	if dcSq <= rsq {
		return int32(len(b.ids))
	}
	return 0
}

// forCandidates invokes fn on every bucket that can intersect the ball
// B(center, r) expanded by pad on each axis. The occupied cells are sorted
// with axis 0 fastest-varying, so the query block decomposes into one
// sorted-range scan per higher-axis prefix (a binary search each); when the
// block has more such runs than there are occupied cells, scanning all
// buckets directly is cheaper (which also keeps huge-radius queries O(n)).
// fn returning false stops the enumeration.
func (ix *CellIndex) forCandidates(lv *cellLevel, center vec.Vector, r, pad float64, sc *cellScratch, fn func(*cellBucket) bool) {
	d := ix.dim
	side := lv.side
	runs := 1.0
	for a := 0; a < d; a++ {
		sc.lo[a] = int64(math.Floor((center[a] - r - pad) / side))
		sc.hi[a] = int64(math.Floor((center[a] + r + pad) / side))
		if a > 0 {
			runs *= float64(sc.hi[a] - sc.lo[a] + 1)
		}
	}
	if runs > float64(len(lv.buckets)) {
		for bi := range lv.buckets {
			b := &lv.buckets[bi]
			in := true
			for a := 0; a < d; a++ {
				if b.coord[a] < sc.lo[a] || b.coord[a] > sc.hi[a] {
					in = false
					break
				}
			}
			if in && !fn(b) {
				return
			}
		}
		return
	}
	// Odometer over the higher-axis prefix; each prefix yields the run
	// [prefix, lo[0]] … [prefix, hi[0]] in the sorted bucket order.
	copy(sc.cur, sc.lo)
	for {
		sc.cur[0] = sc.lo[0]
		start := sort.Search(len(lv.buckets), func(i int) bool {
			return cmpCoords(lv.buckets[i].coord, sc.cur) >= 0
		})
		for bi := start; bi < len(lv.buckets); bi++ {
			b := &lv.buckets[bi]
			if b.coord[0] > sc.hi[0] || !prefixEqual(b.coord, sc.cur) {
				break
			}
			if !fn(b) {
				return
			}
		}
		a := 1
		for ; a < d; a++ {
			sc.cur[a]++
			if sc.cur[a] <= sc.hi[a] {
				break
			}
			sc.cur[a] = sc.lo[a]
		}
		if a == d {
			break
		}
	}
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

// boxBoxDistSq returns the squared min and max distances between the AABBs
// of two cells of the given side.
func boxBoxDistSq(a, b []int64, side float64) (minSq, maxSq float64) {
	for x := range a {
		// Cell x spans [c·side, (c+1)·side]: the gap and the farthest
		// corner pair follow from the integer offset alone.
		off := float64(b[x] - a[x])
		var dmin float64
		switch {
		case off > 1:
			dmin = (off - 1) * side
		case off < -1:
			dmin = (-off - 1) * side
		}
		minSq += dmin * dmin
		dmax := off
		if dmax < 0 {
			dmax = -dmax
		}
		dmax = (dmax + 1) * side
		maxSq += dmax * dmax
	}
	return minSq, maxSq
}

// accumulateCellCounts adds to out the capped within-r counts that ix's
// points (the "members") contribute around every point of one source cell.
// The pass is cell-pair first: candidate member cells entirely within (or
// beyond) reach of the whole source cell are resolved in O(1) for all of
// its points at once, and only candidates straddling some point's ball
// boundary fall back to per-point classification. The (dominant)
// candidate-enumeration cost is thus paid per occupied cell pair rather
// than per point pair — a large win exactly where the data is dense.
//
// srcB's ids index the rows of src; the out slot of id is gids[id] (nil
// gids: ids index out directly — the single-index case where sources are
// members).
// Counts saturate at limit, and contributions accumulate onto whatever out
// already holds: nonnegative saturating addition is order-independent, so a
// sharded caller summing per-shard member contributions lands on exactly
// min(total, limit), bit-identical to a single pass over all members —
// provided srcB and lv use the same cell side (the shared-ladder invariant
// ShardedIndex maintains).
func (ix *CellIndex) accumulateCellCounts(lv *cellLevel, srcB *cellBucket, src *vec.Frame, gids []int32, r float64, limit int32, out []int32, sc *cellScratch) {
	side := lv.side
	rsq := r * r
	// The block around the source cell's box covers the ball bounding
	// boxes of all its points (pad = side/2 beyond the per-point radius,
	// from the cell center).
	for a := 0; a < ix.dim; a++ {
		sc.center[a] = (float64(srcB.coord[a]) + 0.5) * side
	}
	var base int32 // count shared by every point of the cell
	capped := false
	ix.forCandidates(lv, sc.center, r, side/2, sc, func(b *cellBucket) bool {
		minSq, maxSq := boxBoxDistSq(srcB.coord, b.coord, side)
		switch {
		case minSq > rsq: // beyond reach of the whole cell
		case maxSq <= rsq: // inside reach of the whole cell
			base += int32(len(b.ids))
			if base >= limit {
				capped = true
				return false
			}
		default:
			for _, pid := range srcB.ids {
				gid := pid
				if gids != nil {
					gid = gids[pid]
				}
				if out[gid] >= limit {
					continue
				}
				if c := out[gid] + bucketCount(b, side, src.RowView(int(pid), sc.row), rsq); c < limit {
					out[gid] = c
				} else {
					out[gid] = limit
				}
			}
		}
		return true
	})
	for _, pid := range srcB.ids {
		gid := pid
		if gids != nil {
			gid = gids[pid]
		}
		if capped {
			out[gid] = limit
			continue
		}
		if c := out[gid] + base; c < limit {
			out[gid] = c
		} else {
			out[gid] = limit
		}
	}
}

// countAllInto adds to out the capped within-r count of every input point
// via accumulateCellCounts over every occupied source cell (len(out) must
// be N(); a ladder sweep reuses one buffer for every level, zeroing it
// between passes, and the per-worker scratch comes from the index's pool).
// Source cells fan out over the worker pool; each cell's points are
// written by exactly one worker.
//
// A cancelled ctx aborts the pass: the feeder stops handing out chunks,
// every worker skips its remaining work (so the pool always drains and
// exits — no leaked goroutines), and the call returns ctx.Err().
func (ix *CellIndex) countAllInto(ctx context.Context, lv *cellLevel, r float64, limit int32, out []int32) error {
	ctx = ctxOrBackground(ctx)
	if len(out) != ix.frame.N() {
		return fmt.Errorf("geometry: countAllInto out has length %d, want %d", len(out), ix.frame.N())
	}
	if r < 0 || limit <= 0 {
		return nil
	}
	nb := len(lv.buckets)
	workers := ix.opts.Workers
	if workers > nb {
		workers = nb
	}
	const chunk = 64
	ranges := make(chan [2]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := ix.getScratch()
			defer ix.putScratch(sc)
			for rg := range ranges {
				if ctx.Err() != nil {
					continue // drain the channel so the feeder never blocks
				}
				for src := rg[0]; src < rg[1]; src++ {
					ix.accumulateCellCounts(lv, &lv.buckets[src], ix.frame, nil, r, limit, out, sc)
				}
			}
		}()
	}
	for lo := 0; lo < nb && ctx.Err() == nil; lo += chunk {
		hi := lo + chunk
		if hi > nb {
			hi = nb
		}
		ranges <- [2]int{lo, hi}
	}
	close(ranges)
	wg.Wait()
	return ctx.Err()
}

// topTAvg returns the average of the t largest values (each clamped to
// [0, t]) via one counting pass — O(n + t), no sort.
func topTAvg(counts []int32, t int) float64 {
	hist := make([]int32, t+1)
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
// the radius ladder instead of the Θ(n²) pairwise distances: radius 0 is
// answered exactly from the duplicate table, every ladder radius gets the
// cell-granularity estimate (clipped to stay monotone), and the sweep stops
// as soon as L saturates at t — guaranteed at the ladder top, which covers
// the data diameter plus the center-rule slack. Runtime
// O(n·(2·CellsPerRadius+2)^d) per ladder level over Workers cores; memory
// O(n) per transient level. ctx cancellation aborts between (and inside)
// ladder levels — this sweep is the dominant per-query cost at scale.
func (ix *CellIndex) BuildLStep(ctx context.Context, t int) (*LStep, error) {
	ctx = ctxOrBackground(ctx)
	n := ix.frame.N()
	if t < 1 || t > n {
		return nil, fmt.Errorf("geometry: BuildLStep t=%d out of [1,%d]", t, n)
	}
	l := &LStep{T: t}
	prev := topTAvg(ix.dupCount, t)
	l.Breaks = append(l.Breaks, 0)
	l.Vals = append(l.Vals, prev)
	counts := make([]int32, n) // one buffer for every ladder level
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
	for j := 0; j <= ix.lad.top && prev < float64(t); j++ {
		r := ix.levelRadius(j)
		clear(counts)
		if err := ix.countAllInto(ctx, ix.level(j), r, int32(t), counts); err != nil {
			return nil, err
		}
		v := topTAvg(counts, t)
		if v > prev {
			l.Breaks = append(l.Breaks, r)
			l.Vals = append(l.Vals, v)
			prev = v
		}
	}
	return l, nil
}
