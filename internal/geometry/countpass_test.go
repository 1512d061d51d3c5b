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
		lad := ladderOf(t, opts, d, math.Sqrt(float64(d)))
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

// boxBoxDistSq returns the squared min and max distances between the AABBs
// of two cells of the given side: the whole-cell classification of the
// per-pair count path below.
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

// perPairCellCounts is the count pass as it stood before the row join, the
// oracle crossCellCounts must match bit for bit. Per (source cell, member
// group) it takes the candidate block of cells that can meet the ball
// around any point of the source cell (the cell center padded by side/2,
// clamped to the member level's occupied box), classifies each occupied
// candidate against the whole source cell by boxBoxDistSq, and resolves
// the cells that straddle the boundary point by point with bucketCount,
// saturating at limit.
func perPairCellCounts(srcs, members []cellGroup, j int, r float64, limit int32, out []int32) {
	rsq := r * r
	for _, sg := range srcs {
		slv := sg.ix.level(j)
		side := slv.side
		d := slv.dim
		for c := 0; c < slv.cells(); c++ {
			sc := slv.coord(c)
			for _, mg := range members {
				mlv := mg.ix.level(j)
				var base int32
				capped := false
			cells:
				for mc := 0; mc < mlv.cells() && !capped; mc++ {
					coord := mlv.coord(mc)
					for a := 0; a < d; a++ {
						center := (float64(sc[a]) + 0.5) * side
						lo := math.Floor((center - r - side/2) / side)
						hi := math.Floor((center + r + side/2) / side)
						if float64(coord[a]) < lo || float64(coord[a]) > hi {
							continue cells
						}
					}
					minSq, maxSq := boxBoxDistSq(sc, coord, side)
					switch {
					case minSq > rsq:
					case maxSq <= rsq:
						base += mlv.size(mc)
						capped = base >= limit
					default:
						for _, pid := range slv.members(c) {
							gid := pid
							if sg.gids != nil {
								gid = sg.gids[pid]
							}
							out[gid] = min(out[gid]+bucketCount(coord, mlv.size(mc), side, sg.ix.frame.Row(int(pid)), rsq), limit)
						}
					}
				}
				for _, pid := range slv.members(c) {
					gid := pid
					if sg.gids != nil {
						gid = sg.gids[pid]
					}
					if capped {
						out[gid] = limit
					} else {
						out[gid] = min(out[gid]+base, limit)
					}
				}
			}
		}
	}
}

// countPassGroups returns the group layouts a count pass runs over for one
// frame: the frame as its own single identity group, and the frame split
// into even and odd rows, each a group whose gids map back to the frame's
// rows (the sharded and epoch layouts).
func countPassGroups(tb testing.TB, f *vec.Frame, opts CellIndexOptions) [][]cellGroup {
	tb.Helper()
	all, err := NewCellIndexFrame(f, opts)
	if err != nil {
		tb.Fatal(err)
	}
	layouts := [][]cellGroup{{{ix: all}}}
	if f.N() < 2 {
		return layouts
	}
	var split []cellGroup
	for parity := 0; parity < 2; parity++ {
		var ids []int32
		for i := int32(parity); i < int32(f.N()); i += 2 {
			ids = append(ids, i)
		}
		ix, err := NewCellIndexFrame(f.Gather(ids), opts)
		if err != nil {
			tb.Fatal(err)
		}
		split = append(split, cellGroup{ix: ix, gids: ids})
	}
	return append(layouts, split)
}

// topLevel returns the highest ladder level every group of groups has.
func topLevel(groups []cellGroup) int {
	top := groups[0].ix.lad.top
	for _, g := range groups {
		top = min(top, g.ix.lad.top)
	}
	return top
}

// checkCountPass runs crossCellCounts with the given workers over groups
// as both sources and members, at level j and radius r, once at each
// limit, and compares every count with perPairCellCounts.
func checkCountPass(tb testing.TB, tag string, groups []cellGroup, workers, j int, r float64, limits []int32) {
	tb.Helper()
	n := 0
	for _, g := range groups {
		n += g.ix.N()
	}
	for _, limit := range limits {
		got, want := make([]int32, n), make([]int32, n)
		if err := crossCellCounts(context.Background(), workers, groups, groups, j, r, limit, got); err != nil {
			tb.Fatal(err)
		}
		perPairCellCounts(groups, groups, j, r, limit, want)
		if i := slices.Compare(got, want); i != 0 {
			for k := range got {
				if got[k] != want[k] {
					tb.Fatalf("%s: level %d r %v limit %d: point %d counts %d, per-pair path %d",
						tag, j, r, limit, k, got[k], want[k])
				}
			}
		}
	}
}

// tiedRadius returns a radius r whose square equals, bit for bit, the
// center distance bucketCount computes between a random point of f and
// the center of a random occupied cell of lv, or ok = false when no float
// near the root squares back exactly.
func tiedRadius(rng *rand.Rand, f *vec.Frame, lv *cellLevel) (r float64, ok bool) {
	p := f.Row(rng.Intn(f.N()))
	coord := lv.coord(rng.Intn(lv.cells()))
	var dcSq float64
	for a := range p {
		dc := p[a] - (float64(coord[a])+0.5)*lv.side
		dcSq += dc * dc
	}
	r = math.Sqrt(dcSq)
	for _, c := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
		if c*c == dcSq {
			return c, true
		}
	}
	return 0, false
}

// countPassLimits returns the caps every check runs at: none (n), a tight
// cap (3) and one in between (n/3).
func countPassLimits(n int) []int32 { return []int32{int32(n), 3, int32(max(1, n/3))} }

// TestCountPassMatchesPerPair checks the row join against the per-pair
// path for d = 1..6 at CellsPerRadius 1..12, over frames with negative
// coordinates, a dense cluster, points on cell edges and duplicates; one
// identity group and two gid-mapped member groups; one and three workers;
// limits n, 3 and n/3; ladder radii, radii exactly tied with a computed
// center distance, and rows longer than a task chunk.
func TestCountPassMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ties := 0
	for d := 1; d <= 6; d++ {
		for cpr := 1; cpr <= 12; cpr++ {
			n := 200 + rng.Intn(200)
			f := layoutTestFrame(rng, n, d, 1.0/float64(1+rng.Intn(64)))
			if cpr%3 == 0 {
				f = cubeFrame(rng, n, d, 1.0/8)
			}
			opts := CellIndexOptions{CellsPerRadius: cpr}
			for li, groups := range countPassGroups(t, f, opts) {
				top := topLevel(groups)
				for k := 0; k < 4; k++ {
					j := rng.Intn(top + 1)
					workers := 1 + 2*(k%2)
					tag := fmt.Sprintf("d=%d cpr=%d layout %d", d, cpr, li)
					checkCountPass(t, tag, groups, workers, j, groups[0].ix.lad.radius(j), countPassLimits(n))
					if r, ok := tiedRadius(rng, f, groups[0].ix.level(j)); ok {
						checkCountPass(t, tag+" tied", groups, workers, j, r, countPassLimits(n))
						ties++
					}
				}
			}
		}
	}
	if ties < 200 {
		t.Fatalf("only %d exactly tied radii checked", ties)
	}

	// Rows longer than a task chunk: a line of cells along axis 0 (d = 1
	// is one row; in d = 2 a few long rows), so tasks split rows.
	for d := 1; d <= 2; d++ {
		const n = 700
		f := vec.NewFrame(n, d)
		for i := 0; i < n; i++ {
			row := f.Row(i)
			row[0] = rng.Float64()
			for a := 1; a < d; a++ {
				row[a] = float64(rng.Intn(3)) / 4
			}
		}
		for _, groups := range countPassGroups(t, f, CellIndexOptions{CellsPerRadius: 8}) {
			lv, row := groups[0].ix.level(0), 1
			for row < lv.cells() && prefixEqual(lv.coord(row), lv.coord(0)) {
				row++
			}
			if row <= countChunk {
				t.Fatalf("d=%d: first row has %d cells, want more than a chunk", d, row)
			}
			for _, j := range []int{0, 2, 4} {
				checkCountPass(t, fmt.Sprintf("line d=%d", d), groups, 3, j, groups[0].ix.lad.radius(j)*64, countPassLimits(n))
			}
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
			copy(row, f.Row(rng.Intn(i)))
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

// FuzzCountPass is the differential check of TestCountPassMatchesPerPair
// over fuzzer-chosen inputs: the seed drives a layoutTestFrame, dim, rows
// and cpr pick its shape and the cell granularity, level the ladder level,
// and mode the layout (bit 0), the worker count (bit 1) and whether the
// radius is the ladder's or one tied with a computed center distance
// (bit 2). Every check runs at limits n, 3 and n/3.
func FuzzCountPass(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, dim, cpr uint8, rows uint16, level, mode uint8) {
		d := 1 + int(dim)%6
		n := 2 + int(rows)%300
		rng := rand.New(rand.NewSource(seed))
		fr := layoutTestFrame(rng, n, d, 1.0/float64(1+rng.Intn(128)))
		layouts := countPassGroups(t, fr, CellIndexOptions{CellsPerRadius: 1 + int(cpr)%12})
		groups := layouts[int(mode)%len(layouts)]
		j := int(level) % (topLevel(groups) + 1)
		r := groups[0].ix.lad.radius(j)
		if mode&4 != 0 {
			if tied, ok := tiedRadius(rng, fr, groups[0].ix.level(j)); ok {
				r = tied
			}
		}
		checkCountPass(t, "fuzz", groups, 1+int(mode>>1&1)*2, j, r, countPassLimits(n))
	})
}

// ladderOf derives the radius ladder, failing the test on an invalid one.
func ladderOf(tb testing.TB, opts CellIndexOptions, d int, diag float64) radiusLadder {
	tb.Helper()
	lad, err := newRadiusLadder(opts, d, diag)
	if err != nil {
		tb.Fatal(err)
	}
	return lad
}

// BenchmarkCountPass times one full count pass — crossCellCounts with the
// index as its one identity group, at a mid-ladder level: every source
// cell's candidate scan and boundary resolution — over n = 100k uniform
// points in the unit square, with the level built before the timer starts:
// the per-level cost a ladder sweep pays once the index's levels exist.
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
	ix.level(j)
	self := []cellGroup{{ix: ix}}
	out := make([]int32, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(out)
		if err := crossCellCounts(context.Background(), ix.opts.Workers, self, self, j, ix.lad.radius(j), n/2, out); err != nil {
			b.Fatal(err)
		}
	}
}
