package geometry

import (
	"cmp"
	"math"
	"slices"

	"privcluster/internal/vec"
)

// cmpRowKeys orders row i of f against row j of g by their per-axis float64
// bit patterns. Its equality classes are exactly those of
// vec.Frame.AppendRowKey (bitwise, so −0 ≠ +0, and Float32 rows compare by
// their exact float64 upconversion); the order itself carries no meaning.
func cmpRowKeys(f *vec.Frame, i int, g *vec.Frame, j int) int {
	for a := 0; a < f.Dim(); a++ {
		if c := cmp.Compare(math.Float64bits(f.At(i, a)), math.Float64bits(g.At(j, a))); c != 0 {
			return c
		}
	}
	return 0
}

// dupCounts is the duplicate table (the exact radius-0 counts): for every
// row of pts, the number of member rows bitwise identical to it, where the
// members are the rows of mem listed in memRows, or every row of mem when
// memRows is nil (memRows is not modified). The members are sorted into
// equality classes under cmpRowKeys and each row of pts binary-searches
// its class, so no per-row key is materialized.
func dupCounts(pts, mem *vec.Frame, memRows []int32) []int32 {
	var rows []int32
	if memRows != nil {
		rows = slices.Clone(memRows)
	} else {
		rows = make([]int32, mem.N())
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	slices.SortFunc(rows, func(x, y int32) int { return cmpRowKeys(mem, int(x), mem, int(y)) })
	// starts[c] is the offset in rows of class c's first member.
	var starts []int32
	for k := range rows {
		if k == 0 || cmpRowKeys(mem, int(rows[k-1]), mem, int(rows[k])) != 0 {
			starts = append(starts, int32(k))
		}
	}
	classes := len(starts)
	starts = append(starts, int32(len(rows)))

	out := make([]int32, pts.N())
	for i := range out {
		c, found := slices.BinarySearchFunc(starts[:classes], i, func(s int32, i int) int {
			return cmpRowKeys(mem, int(rows[s]), pts, i)
		})
		if found {
			out[i] = starts[c+1] - starts[c]
		}
	}
	return out
}
