package geometry

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// cellGroup pairs one CellIndex with the mapping from its local row ids to
// slots of a global output vector (nil = identity). It is the unit of the
// generic cross-counting pass below: a plain CellIndex is one identity
// group, a LocalShard's source index over its owned rows another, an epoch
// snapshot one group per storage generation (base + delta), and the two
// compose freely: a mutable shard's full pass is base/delta owned-row
// groups against base/delta all-row groups, its chained passes the same
// against the appended rows.
//
// On the source side gids maps a group-local point id to its out slot; on
// the member side only the cells matter (a member's contribution is a pure
// function of its own cell and the query point), so member gids are
// ignored. dups and isoSq, set only on a source group whose passes have one
// member group, hold each point's duplicate count and isolation bound
// against it (dupTable).
type cellGroup struct {
	ix    *CellIndex
	gids  []int32
	dups  []int32
	isoSq []float64
}

// gid maps the group-local point id pid to its out slot.
func (g *cellGroup) gid(pid int32) int32 {
	if g.gids != nil {
		return g.gids[pid]
	}
	return pid
}

// crossCellCounts is the one bulk counting engine of the scalable
// indexes: it adds to out the capped within-r member contributions around
// every source point, at ladder level j, across all (source group, member
// group) pairs. All groups must be pinned to one shared radius ladder (same
// cell side at level j) — the invariant that makes each source point's
// count bit-identical to a single unsharded pass's, however the points are
// grouped (see the ShardedIndex equivalence contract). A level j outside
// some group's ladder is an error.
//
// Source cells fan out over a worker pool shared by every group pair:
// tasks of countChunk cells partition each source group's cells, workers
// (the caller among them) claim tasks from one atomic counter, the source
// groups partition the out slots, and a point's slot is written only by
// the task owning its source cell, so the pass is data-race free. Each
// task joins its source rows against the member rows in reach (see
// joinPass); a source row whose reach misses a member group's occupied box
// skips that group in O(d), and a source cell of isolated points skips the
// join (see CellIndex). A cancelled ctx aborts the pass with ctx.Err():
// the workers stop claiming tasks and return, no goroutines leak.
//
// A member's contribution depends on the two points alone, so at limit
// MaxInt32 the pass adds uncapped counts that later passes may extend:
// mutable indexes chain them from epoch to epoch (epochChain).
//
// ctx must be non-nil: callers resolve a nil ctx with ctxOrBackground.
func crossCellCounts(ctx context.Context, workers int, srcs, members []cellGroup, j int, r float64, limit int32, out []int32) error {
	if !(r >= 0) || limit <= 0 || len(srcs) == 0 || len(members) == 0 {
		return nil
	}
	for _, groups := range [][]cellGroup{srcs, members} {
		for _, g := range groups {
			if err := g.ix.checkLevel(j); err != nil {
				return err
			}
		}
	}
	// Materialize every group's cell level up front, inline: a level is
	// built once per index and kept, so on a warm index these are cache
	// hits, and per-group build goroutines would cost allocations on every
	// pass. Source and member slices may share indexes; the second lookup
	// is a hit. A level build draws on the scratch pool too, so the pass
	// takes its pooled scratch only once the levels are built.
	var buf [4]*cellLevel
	built := buf[:0]
	for _, g := range srcs {
		built = append(built, g.ix.level(j))
	}
	for _, g := range members {
		built = append(built, g.ix.level(j))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sc := srcs[0].ix.getScratch()
	p := &sc.pass
	defer func() {
		*p = countPass{} // the pooled pass keeps no caller references
		srcs[0].ix.putScratch(sc)
	}()
	*p = countPass{ctx: ctx, srcs: srcs, members: members, out: out, limit: limit}
	lvs := append(p.lvBuf[:0], built...)
	p.srcLvs, p.memLvs = lvs[:len(srcs)], lvs[len(srcs):]
	p.jp = newJoinPass(lvs, r)
	for _, lv := range p.srcLvs {
		p.tasks += (lv.cells() + countChunk - 1) / countChunk
	}
	for w := 1; w < min(workers, p.tasks); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			sc := srcs[0].ix.getScratch()
			defer srcs[0].ix.putScratch(sc)
			p.work(sc)
		}()
	}
	p.work(sc)
	p.wg.Wait()
	return ctx.Err()
}

// extendCounts adds to out crossCellCounts' counts, bit for bit (sums of
// nonnegative terms do not depend on their order), on the calling goroutine
// and driven from the members' rows, so the epoch chain's pass against the
// appended rows costs what they reach: each run of a member row with cells
// within 2w of one another merges with the source cells within w of it
// (rowsNear, then two gallops on axis 0).
func extendCounts(ctx context.Context, srcs, members []cellGroup, j int, r float64, limit int32, out []int32) error {
	if !(r >= 0) || limit <= 0 || len(srcs) == 0 {
		return nil
	}
	var buf [4]*cellLevel
	lvs := buf[:0]
	for _, groups := range [][]cellGroup{srcs, members} {
		for _, g := range groups {
			if err := g.ix.checkLevel(j); err != nil {
				return err
			}
			lvs = append(lvs, g.ix.level(j))
		}
	}
	jp := newJoinPass(lvs, r)
	sc := srcs[0].ix.getScratch()
	defer srcs[0].ix.putScratch(sc)
	jp.resetBands(sc)
	for _, mlv := range lvs[len(srcs):] {
		for gi, slv := range lvs[:len(srcs)] {
			src, inside, cursor := &srcs[gi], scratchOf(&sc.inside, slv.cells()), 0
			sc.runs = sc.runs[:0]
			for m0, m1 := 0, 0; m0 < mlv.cells() && ctx.Err() == nil; m0 = m1 {
				for m1 = m0 + 1; m1 < mlv.cells() && prefixEqual(mlv.coord(m1), mlv.coord(m0)) && mlv.coord(m1)[0]-jp.w <= mlv.coord(m1 - 1)[0]+jp.w; m1++ {
				}
				for _, row := range jp.rowsNear(slv, mlv.coord(m0), mlv.coord(m1 - 1)[0], sc, &cursor) {
					copy(sc.seek, slv.coord(int(row[0])))
					sc.seek[0] = mlv.coord(m0)[0] - jp.w
					c0 := slv.gallop(int(row[0]), sc.seek)
					sc.seek[0] = mlv.coord(m1 - 1)[0] + jp.w + 1
					if c1 := slv.gallop(c0, sc.seek); c0 < c1 {
						jp.merge(slv, c0, c1, src, mlv, m0, m1, inside[c0:c1], out, limit, sc)
						sc.runs = append(sc.runs, [2]int64{int64(c0), int64(c1)})
					}
				}
			}
			for _, run := range sc.runs {
				for c := int(run[0]); c < int(run[1]); c++ {
					if n := inside[c]; n != 0 {
						inside[c] = 0
						for _, pid := range slv.members(c) {
							gid := src.gid(pid)
							out[gid] = min(out[gid]+n, limit)
						}
					}
				}
			}
		}
	}
	return ctx.Err()
}

// countPass is one crossCellCounts pass, shared by its workers and kept
// in the calling goroutine's scratch (cellScratch.pass).
type countPass struct {
	ctx            context.Context
	jp             joinPass
	srcs, members  []cellGroup
	srcLvs, memLvs []*cellLevel
	lvBuf          [4]*cellLevel // backs the levels of up to four groups
	out            []int32
	limit          int32
	tasks          int
	next           atomic.Int64 // the next unclaimed task
	wg             sync.WaitGroup
}

// work claims and runs tasks, on the worker's scratch sc, until none is
// left or the pass is cancelled.
func (p *countPass) work(sc *cellScratch) {
	jp := p.jp // a worker-local copy keeps the pass constants off the heap
	jp.resetBands(sc)
	for {
		k := int(p.next.Add(1) - 1)
		if k >= p.tasks || p.ctx.Err() != nil {
			return
		}
		gi := 0
		for ; k*countChunk >= p.srcLvs[gi].cells(); gi++ {
			k -= (p.srcLvs[gi].cells() + countChunk - 1) / countChunk
		}
		slv := p.srcLvs[gi]
		lo := k * countChunk
		// Member groups outermost, so each join walks one member level
		// through the whole chunk; a point's saturating sum still takes its
		// member groups in the same order.
		for mi := range p.members {
			jp.countTask(slv, lo, min(lo+countChunk, slv.cells()), &p.srcs[gi], p.memLvs[mi], p.out, p.limit, sc)
		}
	}
}

// joinPass holds one count pass's constants and runs its row join: a
// task groups its source cells into rows (cells sharing axes 1..d−1), and
// each source row merges along axis 0 with every occupied member row within
// w cells on each higher axis. By the center rule's bounds, every point of
// a source cell lies within (|o_a|+½)·side of the center of the member cell
// at offset o on axis a, and at least (|o_a|−½)·side away when o_a ≠ 0, so
// for fixed higher-axis offsets the member cells wholly inside the ball
// form the band |o_0| ≤ in and those not wholly outside the band
// |o_0| ≤ reach (see band). Inside runs add their counts at once, only the
// straddlers between the bands go through bucketCount, and the count is
// exactly the sum of bucketCount over every member cell.
//
// The bounds are widened by a relative margin of 16·(d+1)·(K+2)·2⁻⁵³, where
// K bounds the levels' cell coordinates: a point's cell and bucketCount's
// center distance take a few roundings of at most 2⁻⁵³ relative to values
// of size K·side, and a margin too wide only makes more straddlers. Past
// K ≈ 2⁴⁸/(d+1), where floats stop placing points in cells reliably, the
// margin reaches 1 and every cell within w straddles.
type joinPass struct {
	side, rsq float64
	w         int64   // ⌈r/side⌉ (+1 with the bands off), capped at the occupied span
	up, down  float64 // 1 ± the margin; down ≤ 0 turns the bands off
	bands     int     // band table entries, (w+1)^(d−1); 0 past maxBands
	iso       float64 // isolation threshold, squared (see countTask); +Inf turns the skip off
}

// maxBands caps a scratch's band table (see band).
const maxBands = 1024

// newJoinPass derives the pass constants from every group's level (all of
// one side) and the radius r ≥ 0.
func newJoinPass(lvs []*cellLevel, r float64) joinPass {
	side, d := lvs[0].side, lvs[0].dim
	var k, span float64
	for a := 0; a < d; a++ {
		lo, hi := lvs[0].lo[a], lvs[0].hi[a]
		for _, lv := range lvs {
			lo, hi = min(lo, lv.lo[a]), max(hi, lv.hi[a])
		}
		k = max(k, math.Abs(float64(lo)), math.Abs(float64(hi)))
		span = max(span, float64(hi)-float64(lo))
	}
	m := 16 * float64(d+1) * (k + 2) * 0x1p-53
	// With the bands on, a cell ⌈r/side⌉+1 away on some axis is over r+side/2
	// from every source point, against roundings under side/16.
	w := math.Ceil(r / side)
	if m >= 1 {
		w++
	}
	jp := joinPass{side: side, rsq: r * r, w: int64(min(w, span, 1<<62)), up: 1 + m, down: 1 - m, bands: 1, iso: math.Inf(1)}
	// The margin covers the isolation skip's few roundings too, while the
	// square stays in the normal float range.
	if t := (r + side*math.Sqrt(float64(d))/2) * (1 + m); m < 1 && t*t >= 0x1p-900 && t*t <= math.MaxFloat64 {
		jp.iso = t * t
	}
	for a := 1; a < d && jp.bands > 0; a++ {
		if jp.bands *= int(jp.w) + 1; jp.w >= maxBands || jp.bands > maxBands {
			jp.bands = 0
		}
	}
	return jp
}

// resetBands empties the scratch's band table (see band) for a new pass.
func (jp *joinPass) resetBands(s *cellScratch) {
	if len(s.bands) < jp.bands {
		s.bands = make([][2]int64, jp.bands)
	}
	for i := range s.bands[:jp.bands] {
		s.bands[i][1] = -2
	}
}

// countTask adds mlv's contributions, saturating at lim, to dst at every
// point of slv's source cells [lo, hi), mapped through src.gids. Runs of
// cells within one row merge with the member rows in reach (rowsNear),
// except isolated cells: each of their points p has isoSq[p] over jp.iso,
// the margin-widened square of r + side·√d/2, so only p's own cell,
// holding its dups[p] copies, can count (see CellIndex), and bucketCount
// resolves it as the join would.
func (jp *joinPass) countTask(slv *cellLevel, lo, hi int, src *cellGroup, mlv *cellLevel, dst []int32, lim int32, sc *cellScratch) {
	acc := sc.acc[:hi-lo] // wholly-inside member counts per source cell
	clear(acc)
	cursor := 0
	for c0 := lo; c0 < hi; {
		if jp.isolated(slv, c0, src) {
			for _, pid := range slv.members(c0) {
				gid := src.gid(pid)
				dst[gid] = min(dst[gid]+bucketCount(slv.coord(c0), src.dups[pid], jp.side, src.ix.frame.Row(int(pid)), jp.rsq), lim)
			}
			c0++
			continue
		}
		c1 := c0 + 1
		for c1 < hi && prefixEqual(slv.coord(c1), slv.coord(c0)) && !jp.isolated(slv, c1, src) {
			c1++
		}
		for _, row := range jp.rowsNear(mlv, slv.coord(c0), slv.coord(c1 - 1)[0], sc, &cursor) {
			jp.merge(slv, c0, c1, src, mlv, int(row[0]), int(row[1]), acc[c0-lo:c1-lo], dst, lim, sc)
		}
		c0 = c1
	}
	for c := lo; c < hi; c++ {
		for _, pid := range slv.members(c) {
			gid := src.gid(pid)
			dst[gid] = min(dst[gid]+acc[c-lo], lim)
		}
	}
}

// isolated reports whether source cell c is isolated (see countTask).
func (jp *joinPass) isolated(slv *cellLevel, c int, src *cellGroup) bool {
	for _, pid := range slv.members(c) {
		if src.isoSq == nil || !(src.isoSq[pid] > jp.iso) {
			return false
		}
	}
	return true
}

// rowsNear returns, in sc.near, every occupied row [m, e) of lv within w
// cells, on each higher axis, of a row running from the cell coordinates
// row to axis-0 coordinate last (none when axis 0 is out of reach). Axis
// 1's range is one sorted span per position of axes 2..d−1, which an
// odometer walks; a gallop finds each span's first row, from *cursor (the
// previous call's landing) when one compare shows every cell before it
// sorts below the key, and one more each row's end. When the positions
// outnumber lv's cells, walking every row is cheaper.
func (jp *joinPass) rowsNear(lv *cellLevel, row []int64, last int64, sc *cellScratch, cursor *int) [][2]int64 {
	d, nb := lv.dim, lv.cells()
	sc.near = sc.near[:0]
	if last+jp.w < lv.lo[0] || row[0]-jp.w > lv.hi[0] {
		return nil
	}
	if d == 1 {
		return append(sc.near, [2]int64{0, int64(nb)})
	}
	lo, hi, key := sc.lo, sc.hi, sc.key
	positions := 1.0
	for a := 1; a < d; a++ {
		lo[a], hi[a] = max(row[a]-jp.w, lv.lo[a]), min(row[a]+jp.w, lv.hi[a])
		if lo[a] > hi[a] {
			return nil
		}
		if a > 1 {
			positions *= float64(hi[a] - lo[a] + 1)
		}
	}
	// next returns the end of the row starting at cell m.
	next := func(m int) int {
		copy(key[1:], lv.coord(m)[1:])
		key[1]++
		return lv.gallop(m+1, key)
	}
	key[0] = lv.lo[0]
	if positions > float64(nb) {
	rows:
		for m, e := 0, 0; m < nb; m = e {
			e = next(m)
			for a, x := range lv.coord(m)[1:] {
				if x < lo[a+1] || x > hi[a+1] {
					continue rows
				}
			}
			sc.near = append(sc.near, [2]int64{int64(m), int64(e)})
		}
		return sc.near
	}
	copy(key[1:], lo[1:])
	from := 0
	if c := *cursor; c > 0 && c <= nb && cmpCoords(lv.coord(c-1), key) < 0 {
		from = c
	}
	for first := true; ; first = false {
		m := lv.gallop(from, key)
		if first {
			*cursor = m
		}
		for m < nb && lv.coord(m)[1] <= hi[1] && (d == 2 || slices.Equal(lv.coord(m)[2:], key[2:])) {
			e := next(m)
			sc.near = append(sc.near, [2]int64{int64(m), int64(e)})
			m = e
		}
		from, key[1] = m, lo[1]
		a := 2
		for ; a < d && key[a] == hi[a]; a++ {
			key[a] = lo[a]
		}
		if a == d {
			return sc.near
		}
		key[a]++
	}
}

// merge joins the source row [c0, c1) against the member row [m0, m1) along
// axis 0. For a source cell at axis-0 coordinate x, the member cells
// [p2, p3) within a = max(in, 0) of x are its inside run when in ≥ 0, or
// the one straddler at offset 0 when in < 0; one gallop places p2 and p3,
// then they step as x ascends. acc holds the row's inside counts.
//
// The other straddlers lie on either side of [p2, p3), within reach, where
// each point's computed axis-0 center offset has one sign (it is at least
// side/2, against roundings under side/16 while the bands are on). So on
// each side the computed center distance grows outward, float subtraction,
// squaring and summation being monotone, and the cells bucketCount counts
// form a run next to [p2, p3): each side is scanned to its first miss
// (with the bands off, through reach).
func (jp *joinPass) merge(slv *cellLevel, c0, c1 int, src *cellGroup, mlv *cellLevel, m0, m1 int, acc, dst []int32, lim int32, sc *cellScratch) {
	in, reach := jp.band(sc, slv.coord(c0), mlv.coord(m0))
	if reach < 0 {
		return
	}
	a, d, mx := max(in, 0), slv.dim, mlv.coords
	copy(sc.seek, mlv.coord(m0))
	sc.seek[0] = slv.coords[c0*d] - a
	p2 := mlv.gallop(m0, sc.seek)
	p3 := p2
	for c := c0; c < c1; c++ {
		k, x := c-c0, slv.coords[c*d]
		if acc[k] >= lim {
			continue
		}
		for p2 < m1 && mx[p2*d] < x-a {
			p2++
		}
		for p3 = max(p3, p2); p3 < m1 && mx[p3*d] <= x+a; p3++ {
		}
		if in >= 0 {
			if acc[k] = min(acc[k]+mlv.start[p3]-mlv.start[p2], lim); acc[k] == lim {
				continue
			}
			if (p2 == m0 || mx[(p2-1)*d] < x-reach) && (p3 == m1 || mx[p3*d] > x+reach) {
				continue // no straddler on either side
			}
		}
		for _, pid := range slv.members(c) {
			gid := src.gid(pid)
			p, v := src.ix.frame.Row(int(pid)), dst[gid]
			for m := p2; m < p3 && in < 0; m++ {
				v = min(v+bucketCount(mlv.coord(m), mlv.size(m), jp.side, p, jp.rsq), lim)
			}
			for m := p2 - 1; m >= m0 && mx[m*d] >= x-reach && v < lim; m-- {
				n := bucketCount(mlv.coord(m), mlv.size(m), jp.side, p, jp.rsq)
				if n == 0 && jp.down > 0 {
					break
				}
				v = min(v+n, lim)
			}
			for m := p3; m < m1 && mx[m*d] <= x+reach && v < lim; m++ {
				n := bucketCount(mlv.coord(m), mlv.size(m), jp.side, p, jp.rsq)
				if n == 0 && jp.down > 0 {
					break
				}
				v = min(v+n, lim)
			}
			dst[gid] = v
		}
	}
}

// band returns the axis-0 bands in, reach ∈ [−1, w] of member row mc seen
// from source row sc (each given by one of its cells). Each bound adds axis
// 0's term to the higher axes' sum, and float addition and multiplication
// of nonnegative values are monotone, so each test is monotone in |o_0|. A
// band depends only on the higher-axis offsets' magnitudes, so when their
// (w+1)^(d−1) combinations fit maxBands, the scratch's table keeps each.
func (jp *joinPass) band(s *cellScratch, sc, mc []int64) (in, reach int64) {
	if jp.down <= 0 {
		return -1, jp.w
	}
	idx := -1
	if jp.bands > 0 {
		idx = 0
		for a := len(sc) - 1; a >= 1; a-- {
			idx = idx*(int(jp.w)+1) + int(max(mc[a]-sc[a], sc[a]-mc[a]))
		}
		if e := s.bands[idx]; e[1] >= -1 {
			return e[0], e[1]
		}
	}
	var hiSum, loSum float64
	for a := 1; a < len(sc); a++ {
		hiSum += jp.term(mc[a]-sc[a], 0.5)
		loSum += jp.term(mc[a]-sc[a], -0.5)
	}
	in = jp.edge(math.Sqrt(jp.rsq/jp.up-hiSum)/jp.side-0.5, func(o int64) bool { return (jp.term(o, 0.5)+hiSum)*jp.up <= jp.rsq })
	reach = jp.edge(math.Sqrt(jp.rsq/jp.down-loSum)/jp.side+0.5, func(o int64) bool { return (jp.term(o, -0.5)+loSum)*jp.down <= jp.rsq })
	if idx >= 0 {
		s.bands[idx] = [2]int64{in, reach}
	}
	return in, reach
}

// term returns ((|o|+h)·side)², |o|+h floored at 0: the squared largest
// (h = ½) or smallest (h = −½) center distance on an axis at offset o.
func (jp *joinPass) term(o int64, h float64) float64 {
	x := max(math.Abs(float64(o))+h, 0) * jp.side
	return x * x
}

// edge returns the largest o in [−1, w] with ok(o), for ok true up to some
// offset and false past it, starting from the floored guess g (NaN: −1).
func (jp *joinPass) edge(g float64, ok func(int64) bool) int64 {
	o := int64(-1)
	if g = math.Floor(g); g > float64(jp.w) {
		o = jp.w
	} else if g >= 0 {
		o = int64(g)
	}
	for o >= 0 && !ok(o) {
		o--
	}
	for o < jp.w && ok(o+1) {
		o++
	}
	return o
}
