package geometry

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"privcluster/internal/vec"
)

// oracleCells buckets f's rows by a map keyed on their cell coordinates,
// with each cell's ids in ascending row order: an independent reference
// for the flat sorted layout newCellLevel emits.
func oracleCells(f *vec.Frame, side float64) map[string][]int32 {
	cells := make(map[string][]int32)
	for i := 0; i < f.N(); i++ {
		coord := make([]int64, f.Dim())
		for a := range coord {
			coord[a] = int64(math.Floor(f.At(i, a) / side))
		}
		k := fmt.Sprint(coord)
		cells[k] = append(cells[k], int32(i))
	}
	return cells
}

// layoutTestFrame fills an n-row frame with random points in [-1, 1)^d
// (negative coordinates included), a tight cluster holding most rows (so one
// cell dominates at coarse sides), rows lying exactly on cell edges (integer
// multiples of side), and duplicates of earlier rows.
func layoutTestFrame(rng *rand.Rand, n, d int, side float64) *vec.Frame {
	f := vec.NewFrame(n, d)
	row := make(vec.Vector, d)
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && i%7 == 0: // duplicate of an earlier row
			copy(row, f.Row(rng.Intn(i)))
		case i%5 == 0: // exactly on a cell edge on every axis
			for a := range row {
				row[a] = float64(rng.Intn(9)-4) * side
			}
		case i%3 != 0: // the cluster
			for a := range row {
				row[a] = 0.3 + 0.01*rng.Float64()
			}
		default:
			for a := range row {
				row[a] = 2*rng.Float64() - 1
			}
		}
		f.SetRow(i, row)
	}
	return f
}

// TestCellLevelLayout checks the flat level against its contract and a
// map-bucketing oracle: cells strictly ascending under cmpCoords, ids a
// permutation ascending within each cell, every member's ⌊x/side⌋ equal to
// its cell's coordinates, lo/hi the exact occupied box, and the same cells
// with the same members as the oracle.
func TestCellLevelLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, d := range []int{1, 2, 3, 5} {
		for _, side := range []float64{1.0 / 4096, 1.0 / 64, 0.25, 1.5} {
			tag := fmt.Sprintf("d=%d side=%g", d, side)
			f := layoutTestFrame(rng, 600, d, side)
			lv := newCellLevel(f, side)
			checkCellLevel(t, tag, f, lv)
		}
	}
}

func checkCellLevel(t *testing.T, tag string, f *vec.Frame, lv *cellLevel) {
	t.Helper()
	n, d, nb := f.N(), f.Dim(), lv.cells()
	if len(lv.coords) != nb*d || len(lv.ids) != n || lv.start[0] != 0 || int(lv.start[nb]) != n {
		t.Fatalf("%s: malformed layout: %d coords, %d ids, start %d..%d for %d cells",
			tag, len(lv.coords), len(lv.ids), lv.start[0], lv.start[nb], nb)
	}
	seen := make([]bool, n)
	lo, hi := slices.Clone(lv.coord(0)), slices.Clone(lv.coord(0))
	for c := 0; c < nb; c++ {
		coord := lv.coord(c)
		if c > 0 && cmpCoords(lv.coord(c-1), coord) >= 0 {
			t.Fatalf("%s: cells %d, %d not strictly increasing: %v, %v", tag, c-1, c, lv.coord(c-1), coord)
		}
		ids := lv.members(c)
		if len(ids) == 0 || !slices.IsSorted(ids) {
			t.Fatalf("%s: cell %d members %v empty or not ascending", tag, c, ids)
		}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s: row %d listed twice", tag, id)
			}
			seen[id] = true
			for a := 0; a < d; a++ {
				if got := int64(math.Floor(f.At(int(id), a) / lv.side)); got != coord[a] {
					t.Fatalf("%s: row %d axis %d in cell %d, want %d", tag, id, a, coord[a], got)
				}
			}
		}
		for a, x := range coord {
			lo[a], hi[a] = min(lo[a], x), max(hi[a], x)
		}
	}
	if !slices.Equal(lo, lv.lo) || !slices.Equal(hi, lv.hi) {
		t.Fatalf("%s: box [%v, %v], want [%v, %v]", tag, lv.lo, lv.hi, lo, hi)
	}
	oracle := oracleCells(f, lv.side)
	if len(oracle) != nb {
		t.Fatalf("%s: %d cells, oracle has %d", tag, nb, len(oracle))
	}
	for c := 0; c < nb; c++ {
		if want := oracle[fmt.Sprint(lv.coord(c))]; !slices.Equal(lv.members(c), want) {
			t.Fatalf("%s: cell %v holds %v, oracle %v", tag, lv.coord(c), lv.members(c), want)
		}
	}
}

// rowKey is a row's little-endian float64 bit patterns: a map key whose
// equality classes are bitwise, the oracle the duplicate table must match.
func rowKey(f *vec.Frame, i int) string {
	var b []byte
	for _, x := range f.Row(i) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

// TestDupTablesMatchRowKeys checks the sort-based duplicate table against
// a map keyed by rowKey, whose bitwise equality classes it must reproduce
// exactly (−0 and +0 are distinct rows), both over every row and over a
// member subset.
func TestDupTablesMatchRowKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, d := range []int{1, 2, 3} {
		tag := fmt.Sprintf("d=%d", d)
		f := layoutTestFrame(rng, 400, d, 0.25)
		f.SetRow(1, make(vec.Vector, d)) // +0
		negZero := make(vec.Vector, d)
		negZero[0] = math.Copysign(0, -1)
		f.SetRow(2, negZero)
		f.SetRow(3, negZero)

		// Members: every row, then every third row.
		var third []int32
		for i := 0; i < f.N(); i += 3 {
			third = append(third, int32(i))
		}
		orig := slices.Clone(third)
		for _, members := range [][]int32{nil, third} {
			keys := make(map[string]int32)
			for i := 0; i < f.N(); i++ {
				if members == nil || slices.Contains(members, int32(i)) {
					keys[rowKey(f, i)]++
				}
			}
			got := DupCounts(f, f, members)
			for i := 0; i < f.N(); i++ {
				if want := keys[rowKey(f, i)]; got[i] != want {
					t.Fatalf("%s members=%d: DupCounts[%d] = %d, want %d", tag, len(members), i, got[i], want)
				}
			}
			// Rows 2 and 3 are the only −0 rows; row 1 (+0) must not join
			// them.
			if members == nil && got[2] != 2 {
				t.Fatalf("%s: −0 row class has %d rows, want 2", tag, got[2])
			}
		}
		if !slices.Equal(third, orig) {
			t.Fatalf("%s: DupCounts reordered its member list", tag)
		}
	}
}

// TestCellLevelsBuiltOnce checks that a ladder sweep reuses the cell levels
// an earlier sweep built: after one BuildLStep, a second at a smaller t
// (whose sweep saturates no later) must build zero new levels, on a
// CellIndex and on a ShardedIndex over LocalShard backends (whose sweep
// runs through PartialCounts).
func TestCellLevelsBuiltOnce(t *testing.T) {
	pts := shardTestPoints(t, 15, 900, 2)
	opts := shardTestOptions(2)
	for _, c := range []struct {
		name string
		ix   BallIndex
	}{
		{"CellIndex", cellIndexOf(t, pts, opts)},
		{"LocalShard backends", shardedIndexOf(t, pts, ShardedIndexOptions{Shards: 3, Cell: opts})},
	} {
		builds0 := statCellLevelBuild.Value()
		if _, err := c.ix.BuildLStep(context.Background(), len(pts)/2); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		builds1, hits1 := statCellLevelBuild.Value(), statCellLevelHit.Value()
		if builds1 == builds0 {
			t.Fatalf("%s: first sweep built no levels", c.name)
		}
		if _, err := c.ix.BuildLStep(context.Background(), len(pts)/4); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if built := statCellLevelBuild.Value() - builds1; built != 0 {
			t.Fatalf("%s: second sweep built %d levels, want 0 (first built %d)", c.name, built, builds1-builds0)
		}
		if statCellLevelHit.Value() == hits1 {
			t.Fatalf("%s: second sweep recorded no level hits", c.name)
		}
	}
}

// TestCellLevelOutOfLadder checks that a ladder level outside [0, top] —
// which could only arrive over the shard wire — is rejected instead of
// being built and retained.
func TestCellLevelOutOfLadder(t *testing.T) {
	pts := shardTestPoints(t, 16, 200, 2)
	sh, err := NewLocalShard(ShardConfig{
		Points:  frameOf(t, pts),
		Members: []int32{0, 1, 2, 3},
		Cell:    shardTestOptions(2).withDefaults(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{-1, sh.src.ix.lad.top + 1, math.MaxInt32} {
		if _, err := sh.PartialCounts(context.Background(), EpochFrozen, j, 0.1, 10); err == nil {
			t.Fatalf("PartialCounts at level %d (top %d) succeeded", j, sh.src.ix.lad.top)
		}
	}
	if _, err := sh.PartialCounts(context.Background(), EpochFrozen, sh.src.ix.lad.top, 0.1, 10); err != nil {
		t.Fatalf("PartialCounts at the ladder top: %v", err)
	}
}

// BenchmarkCellLevelBuild times one fine cell level over n = 100k uniform
// points in the unit square (side 2⁻¹², so nearly every point gets a cell
// of its own): the per-level cost every cold ladder sweep pays once per
// level. A level must stay O(1) allocations, whatever its cell count.
func BenchmarkCellLevelBuild(b *testing.B) {
	const n, d = 100_000, 2
	rng := rand.New(rand.NewSource(1))
	f := vec.NewFrame(n, d)
	for i, data := 0, f.Data(); i < len(data); i++ {
		data[i] = rng.Float64()
	}
	const side = 1.0 / 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lv := newCellLevel(f, side); lv.cells() == 0 {
			b.Fatal("empty level")
		}
	}
}
