package geometry

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"privcluster/internal/vec"
)

// cmpRowKeys orders row i of f against row j of g by their per-axis float64
// bit patterns, axis 0 first and mapped to ascend with its value (−0 just
// below +0, NaNs at the ends), so a sorted member list runs along axis 0.
// Its equality classes are bitwise (so −0 ≠ +0).
func cmpRowKeys(f *vec.Frame, i int, g *vec.Frame, j int) int {
	if c := cmp.Compare(orderedBits(f.At(i, 0)), orderedBits(g.At(j, 0))); c != 0 {
		return c
	}
	for a := 1; a < f.Dim(); a++ {
		if c := cmp.Compare(math.Float64bits(f.At(i, a)), math.Float64bits(g.At(j, a))); c != 0 {
			return c
		}
	}
	return 0
}

// orderedBits maps x's bit pattern to an integer that ascends with x.
func orderedBits(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// DupCounts is the duplicate table (the exact radius-0 counts): for every
// row of pts, the number of member rows bitwise identical to it, where the
// members are the rows of mem listed in memRows, or every row of mem when
// memRows is nil (memRows is not modified).
func DupCounts(pts, mem *vec.Frame, memRows []int32) []int32 {
	dup, _ := dupTable(pts, mem, memRows, false)
	return dup
}

// extendDups returns the duplicate table of src's rows against mem's,
// given prev, the table of src's first ns rows against mem's first nm:
// every source row gains its copies among the new members, and each new
// source row its copies among the old members, each by DupCounts over the
// rows whose hash matches (hashMatches): O(n) hashing plus a search per
// match, against DupCounts' O(n log n).
func extendDups(prev []int32, src, mem *vec.Frame, ns, nm int) []int32 {
	dup := make([]int32, src.N())
	copy(dup, prev)
	newSrc, newMem := rowRange(ns, src.N()), rowRange(nm, mem.N())
	rows := hashMatches(src, src.N(), mem, newMem)
	for k, c := range DupCounts(src.Gather(rows), mem, newMem) {
		dup[rows[k]] += c
	}
	for k, c := range DupCounts(src.Gather(newSrc), mem, hashMatches(mem, nm, src, newSrc)) {
		dup[ns+k] += c
	}
	return dup
}

// hashMatches returns the rows among f's first n whose bit-pattern hash
// matches one of g's rows listed in rows, so every row with a copy among
// those (never nil: DupCounts reads nil as every row).
func hashMatches(f *vec.Frame, n int, g *vec.Frame, rows []int32) []int32 {
	set := make(map[uint64]bool, len(rows))
	for _, i := range rows {
		set[rowHash(g, int(i))] = true
	}
	out := make([]int32, 0, 2*len(rows)) // room for each listed row and one copy of it
	for i := 0; i < n; i++ {
		if set[rowHash(f, i)] {
			out = append(out, int32(i))
		}
	}
	return out
}

// rowHash mixes row i of f's per-axis float64 bit patterns.
func rowHash(f *vec.Frame, i int) uint64 {
	var h uint64
	for _, x := range f.Row(i) {
		h = (h ^ math.Float64bits(x)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// rowRange returns the row ids lo, …, hi−1.
func rowRange(lo, hi int) []int32 {
	rows := make([]int32, hi-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	return rows
}

// isoScan caps the member classes the isolation scan visits on each side.
const isoScan = 32

// dupTable returns DupCounts' table and, with iso, every pts row's
// isolation bound isoSq[i]: at most vec.Frame.DistSq from row i to any
// member not bitwise identical to it (+Inf if none). Each row
// binary-searches the members' equality classes (sorted under cmpRowKeys,
// so along axis 0, one row each), then scans outward on each side until
// axis 0's squared gap reaches the best distance seen or isoScan classes
// pass, and takes that gap: the classes past it are no nearer on axis 0.
func dupTable(pts, mem *vec.Frame, memRows []int32, iso bool) ([]int32, []float64) {
	rows := slices.Clone(memRows)
	if memRows == nil {
		rows = rowRange(0, mem.N())
	}
	slices.SortFunc(rows, func(x, y int32) int { return cmpRowKeys(mem, int(x), mem, int(y)) })
	// starts[c] is the offset in rows of class c's first member; rows
	// keeps one representative per class.
	starts := make([]int32, 0, len(rows)+1)
	for k := range rows {
		if k == 0 || cmpRowKeys(mem, int(rows[k-1]), mem, int(rows[k])) != 0 {
			rows[len(starts)] = rows[k]
			starts = append(starts, int32(k))
		}
	}
	classes, d := len(starts), mem.Dim()
	starts = append(starts, int32(len(rows)))

	dup := make([]int32, pts.N())
	var isoSq, x0 []float64 // x0: the representatives' rows, in class order
	if iso {
		isoSq, x0 = make([]float64, pts.N()), mem.Gather(rows[:classes]).Data()
	}
	for i := range dup {
		c := sort.Search(classes, func(k int) bool { return cmpRowKeys(mem, int(rows[k]), pts, i) >= 0 })
		above := c // the first class above row i
		if c < classes && cmpRowKeys(mem, int(rows[c]), pts, i) == 0 {
			dup[i] = starts[c+1] - starts[c]
			above++
		}
		if !iso {
			continue
		}
		p, best := pts.Row(i), math.Inf(1)
		for _, dir := range [2]struct{ k, step int }{{c - 1, -1}, {above, 1}} {
			for k, s := dir.k, 0; k >= 0 && k < classes; k, s = k+dir.step, s+1 {
				dx := x0[k*d] - p[0]
				if s == isoScan || dx*dx >= best {
					best = min(best, dx*dx)
					break
				}
				var sq float64 // vec.Frame.DistSq, inlined
				for a, y := range x0[k*d : (k+1)*d] {
					sq += (y - p[a]) * (y - p[a])
				}
				best = min(best, sq)
			}
		}
		isoSq[i] = best
	}
	return dup, isoSq
}
