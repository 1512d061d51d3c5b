package geometry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"privcluster/internal/vec"
)

// bucketCountPrefilter is the boundary rule as it stood before the center
// rule became the whole rule: cells whose box lies wholly inside the ball
// count in full, cells wholly outside not at all, and only the remaining
// boundary cells take the center rule. It is the oracle bucketCount must
// match bit for bit.
func bucketCountPrefilter(coord []int64, size int32, side float64, p vec.Vector, rsq float64) int32 {
	var minSq, maxSq float64
	for a := 0; a < len(p); a++ {
		cellLo := float64(coord[a]) * side
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
		return size
	}
	var dcSq float64 // boundary cell: center rule
	for a := 0; a < len(p); a++ {
		dc := p[a] - (float64(coord[a])+0.5)*side
		dcSq += dc * dc
	}
	if dcSq <= rsq {
		return size
	}
	return 0
}

// TestBucketCountCenterRule checks that the center rule alone resolves
// every (cell, point, radius) triple exactly as the inside/outside
// prefilter followed by the center rule did, over the real ladder sides
// (dyadic and odd levels alike) for d ∈ 1..5, radii that are integer and
// non-integer multiples of the side, points on cell edges, and radii tied
// exactly with the computed center distance.
func TestBucketCountCenterRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const perSide = 6000
	var total, ties int
	for d := 1; d <= 5; d++ {
		opts := CellIndexOptions{}.withDefaults(d)
		lad := newRadiusLadder(opts, d, math.Sqrt(float64(d)))
		cpr := opts.CellsPerRadius
		p := make(vec.Vector, d)
		coord := make([]int64, d)
		for j := 0; j <= lad.top; j++ {
			side := lad.radius(j) / float64(cpr)
			for k := 0; k < perSide; k++ {
				for a := range p {
					p[a] = 1.2*rng.Float64() - 0.1
					c := int64(math.Floor(p[a] / side))
					coord[a] = c + int64(rng.Intn(2*cpr+5)-cpr-2)
					switch rng.Intn(8) { // exactly on an edge of the candidate cell
					case 0:
						p[a] = float64(coord[a]) * side
					case 1:
						p[a] = float64(coord[a])*side + side
					}
				}
				var rsq float64
				switch k % 4 {
				case 0: // the ladder radius itself
					rsq = lad.radius(j) * lad.radius(j)
				case 1: // an integer multiple of the side
					r := float64(1+rng.Intn(cpr+2)) * side
					rsq = r * r
				case 2: // a non-integer multiple of the side
					r := (0.5 + float64(cpr+2)*rng.Float64()) * side
					rsq = r * r
				case 3: // tied with the computed center distance
					for a := range p {
						dc := p[a] - (float64(coord[a])+0.5)*side
						rsq += dc * dc
					}
					ties++
				}
				size := int32(1 + rng.Intn(5))
				if got, want := bucketCount(coord, size, side, p, rsq), bucketCountPrefilter(coord, size, side, p, rsq); got != want {
					t.Fatalf("d=%d level %d side %g: coord %v p %v rsq %g: center rule %d, prefilter %d",
						d, j, side, coord, p, rsq, got, want)
				}
				total++
			}
		}
	}
	if total < 1_000_000 {
		t.Fatalf("only %d triples checked, want ≥ 1M", total)
	}
	t.Logf("%d triples (%d exact ties), 0 mismatches", total, ties)
}

// search returns the first cell at or after from whose coordinates are
// ≥ key in cmpCoords order (cells() when there is none), by plain binary
// search: the reference the cursor gallop in forCandidates is checked
// against.
func (lv *cellLevel) search(from int, key []int64) int {
	lo, hi := from, lv.cells()
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

// candidatesBySearch is the reference enumeration for forCandidates: every
// occupied cell of the block around center (clamped to the occupied box),
// one run per higher-axis prefix, each located by binary search from the
// first cell and scanned forward. ok is false when the block has more runs
// than the level has cells, where forCandidates scans every cell instead
// and no cursor is involved; the reference then enumerates nothing.
func candidatesBySearch(lv *cellLevel, center vec.Vector, r, pad float64) (cells []int, ok bool) {
	d := lv.dim
	lo, hi := make([]int64, d), make([]int64, d)
	runs := 1.0
	for a := 0; a < d; a++ {
		flo := math.Floor((center[a] - r - pad) / lv.side)
		fhi := math.Floor((center[a] + r + pad) / lv.side)
		if flo > float64(lv.hi[a]) || fhi < float64(lv.lo[a]) {
			return nil, true
		}
		lo[a] = int64(max(flo, float64(lv.lo[a])))
		hi[a] = int64(min(fhi, float64(lv.hi[a])))
		if a > 0 {
			runs *= float64(hi[a] - lo[a] + 1)
		}
	}
	if runs > float64(lv.cells()) {
		return nil, false
	}
	cur := slices.Clone(lo)
	for {
		for c := lv.search(0, cur); c < lv.cells(); c++ {
			cc := lv.coord(c)
			if cc[0] > hi[0] || !prefixEqual(cc, cur) {
				break
			}
			cells = append(cells, c)
		}
		a := 1
		for ; a < d; a++ {
			cur[a]++
			if cur[a] <= hi[a] {
				break
			}
			cur[a] = lo[a]
		}
		if a == d {
			return cells, true
		}
	}
}

// checkCursorQuery runs one forCandidates query through sc and compares it
// with the reference enumeration: cursorPath reports whether the query took
// the cursor path, and mismatch describes any difference.
func checkCursorQuery(ix *CellIndex, lv *cellLevel, center vec.Vector, r, pad float64, sc *cellScratch) (cursorPath bool, mismatch string) {
	want, ok := candidatesBySearch(lv, center, r, pad)
	if !ok {
		return false, ""
	}
	var got []int
	ix.forCandidates(lv, center, r, pad, sc, func(c int) bool {
		got = append(got, c)
		return true
	})
	if !slices.Equal(got, want) {
		return true, fmt.Sprintf("center %v r %g side %g: cursors yield %v, search %v", center, r, lv.side, got, want)
	}
	return true, ""
}

// checkCursorSweeps runs the count-pass query pattern — source cells of
// src's level in scan order, each cell's center padded by side/2 — against
// each member index at each of the given ladder levels, all through one
// shared scratch, and then again with the source cells shuffled (as
// interleaved pool chunks visit them). The member indexes and levels
// alternate per source cell, so the scratch's cursors are routinely stale.
// At most maxSrc source cells per level are visited (an ordered sample). It
// returns how many queries took the cursor path.
func checkCursorSweeps(t *testing.T, tag string, rng *rand.Rand, src *CellIndex, members []*CellIndex, levels []int, maxSrc int) int {
	t.Helper()
	sc := newCellScratch(src.dim)
	center := make(vec.Vector, src.dim)
	cursorQueries := 0
	for _, j := range levels {
		slv := src.level(j)
		order := rng.Perm(slv.cells())
		order = order[:min(len(order), maxSrc)]
		slices.Sort(order)
		for _, shuffled := range []bool{false, true} {
			if shuffled {
				rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			}
			for _, c := range order {
				for a, x := range slv.coord(c) {
					center[a] = (float64(x) + 0.5) * slv.side
				}
				for _, jj := range levels {
					for mi, m := range members {
						mlv := m.level(jj)
						cursorPath, mismatch := checkCursorQuery(m, mlv, center, m.levelRadius(jj), mlv.side/2, sc)
						if mismatch != "" {
							t.Fatalf("%s: source level %d cell %d (shuffled %v), member %d level %d: %s", tag, j, c, shuffled, mi, jj, mismatch)
						}
						if cursorPath {
							cursorQueries++
						}
					}
				}
			}
		}
	}
	return cursorQueries
}

// TestForCandidatesCursors checks that the cursor-driven candidate scan
// yields exactly the cells, in exactly the order, that a binary search per
// run does: for d ∈ {1, 2, 3, 5} at every pair of ladder levels three
// apart, over frames whose query blocks often reach past the occupied box
// (clamped), with shuffled source order, one scratch shared across two
// levels and two member groups, and a line of cells whose block needs more
// cursor slots than the table holds (slots alias).
func TestForCandidatesCursors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{1, 2, 3, 5} {
		n := 1200
		if d == 5 {
			n = 4000
		}
		f := layoutTestFrame(rng, n, d, 1.0/64, vec.Float64)
		if d == 5 {
			// In d = 5 a block has up to 11⁴ runs, so only a frame this
			// dense in a box this small has levels where blocks (clamped to
			// the box) take the cursor path.
			f = cubeFrame(rng, n, d, 1.0/8)
		}
		opts := CellIndexOptions{Workers: 1}
		all, err := NewCellIndexFrame(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		half, err := NewCellIndexFrame(f.Gather(oddRows(n)), opts)
		if err != nil {
			t.Fatal(err)
		}
		top := min(all.lad.top, half.lad.top)
		queries := 0
		for j := 0; j+3 <= top; j += 3 {
			queries += checkCursorSweeps(t, fmt.Sprintf("d=%d", d), rng, all, []*CellIndex{all, half}, []int{j, j + 3}, 150)
		}
		t.Logf("d=%d: %d cursor-path queries", d, queries)
		if queries < 1000 {
			t.Fatalf("d=%d: only %d queries took the cursor path", d, queries)
		}
	}

	// A line of 20k adjacent cells along axis 1, at a radius spanning more
	// cells than the line: w = ⌊2(r+pad)/side⌋+2 exceeds maxCursors, and
	// the block clamped to the line has exactly as many runs as occupied
	// cells, so the cursor path runs with aliased slots.
	const cells = 20_000
	opts := CellIndexOptions{Workers: 1, CellsPerRadius: 2 * maxCursors}
	lad := newRadiusLadder(opts.withDefaults(2), 2, 0)
	j := lad.top / 2
	side := lad.radius(j) / float64(opts.CellsPerRadius)
	f := vec.NewFrame(cells, 2)
	for i := 0; i < cells; i++ {
		f.SetRow(i, vec.Vector{0.5, (float64(i) + 0.5) * side})
	}
	ix, err := NewCellIndexFrame(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	lv, r := ix.level(j), ix.levelRadius(j)
	if lv.cells() != cells {
		t.Fatalf("line level has %d cells, want %d", lv.cells(), cells)
	}
	if w := 2*(r+lv.side/2)/lv.side + 2; w <= maxCursors {
		t.Fatalf("w = %g does not exceed the cursor cap %d", w, maxCursors)
	}
	sc := newCellScratch(2)
	center := make(vec.Vector, 2)
	for _, c := range rng.Perm(cells)[:20] {
		for a, x := range lv.coord(c) {
			center[a] = (float64(x) + 0.5) * lv.side
		}
		if cursorPath, mismatch := checkCursorQuery(ix, lv, center, r, lv.side/2, sc); !cursorPath || mismatch != "" {
			t.Fatalf("line cell %d: cursor path %v, %s", c, cursorPath, mismatch)
		}
	}
}

// cubeFrame fills an n-row frame with uniform points in the unit cube,
// rows lying exactly on cell edges (multiples of side) and duplicates of
// earlier rows.
func cubeFrame(rng *rand.Rand, n, d int, side float64) *vec.Frame {
	f := vec.NewFrame(n, d)
	row := make(vec.Vector, d)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && i%7 == 0:
			f.RowView(rng.Intn(i), row)
		case i%5 == 0:
			for a := range row {
				row[a] = float64(rng.Intn(int(1/side))) * side
			}
		default:
			for a := range row {
				row[a] = rng.Float64()
			}
		}
		f.SetRow(i, row)
	}
	return f
}

// oddRows returns the odd row ids below n: a second member group.
func oddRows(n int) []int32 {
	var ids []int32
	for i := int32(1); i < int32(n); i += 2 {
		ids = append(ids, i)
	}
	return ids
}

// FuzzForCandidates is the differential check of TestForCandidatesCursors
// over fuzzer-chosen inputs: the seed drives a layoutTestFrame, dim, rows
// and cpr pick its shape and the cell granularity, and lvA, lvB the two
// ladder levels one scratch alternates between.
func FuzzForCandidates(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dim, cpr uint8, rows uint16, lvA, lvB uint8) {
		d := 1 + int(dim)%6
		n := 2 + int(rows)%300
		rng := rand.New(rand.NewSource(seed))
		fr := layoutTestFrame(rng, n, d, 1.0/float64(1+rng.Intn(128)), vec.Float64)
		opts := CellIndexOptions{Workers: 1, CellsPerRadius: 1 + int(cpr)%12}
		all, err := NewCellIndexFrame(fr, opts)
		if err != nil {
			t.Fatal(err)
		}
		half, err := NewCellIndexFrame(fr.Gather(oddRows(n)), opts)
		if err != nil {
			t.Fatal(err)
		}
		top := min(all.lad.top, half.lad.top)
		checkCursorSweeps(t, "fuzz", rng, all, []*CellIndex{all, half}, []int{int(lvA) % (top + 1), int(lvB) % (top + 1)}, 300)
	})
}

// BenchmarkCountPass times one full count pass — countAllInto at a
// mid-ladder level, every source cell's candidate scan and boundary
// resolution — over n = 100k uniform points in the unit square, with the
// level built before the timer starts: the per-level cost a ladder sweep
// pays once the index's levels exist.
func BenchmarkCountPass(b *testing.B) {
	const n, d = 100_000, 2
	rng := rand.New(rand.NewSource(1))
	f := vec.NewFrame(n, d)
	for i, data := 0, f.Data(); i < len(data); i++ {
		data[i] = rng.Float64()
	}
	ix, err := NewCellIndexFrame(f, CellIndexOptions{})
	if err != nil {
		b.Fatal(err)
	}
	j := ix.lad.top / 2
	lv, r := ix.level(j), ix.levelRadius(j)
	out := make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		if err := ix.countAllInto(context.Background(), lv, r, n/2, out); err != nil {
			b.Fatal(err)
		}
	}
}
