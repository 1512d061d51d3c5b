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

// isolationFrame returns one of the frames TestCountPassIsolation runs
// over, by kind: 0 mixes uniform rows, rows on the cell edges of the dyadic
// ladder levels, duplicates and ±0 rows (bitwise distinct at distance 0);
// 1 puts every row on one axis-0 value, so each isolation scan stops at its
// cap; 2 is kind 0 moved to 2³⁶, past 2⁴⁸/(d+1) cell coordinates at the
// fine levels.
func isolationFrame(rng *rand.Rand, n, d, kind int) *vec.Frame {
	f := cubeFrame(rng, n, d, 1.0/64)
	for i := 0; i < n; i++ {
		row := f.Row(i)
		switch {
		case kind == 1:
			row[0] = 0.5
		case i%11 == 3: // ±0 on every axis, signs drawn per axis
			for a := range row {
				row[a] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
		if kind == 2 {
			for a := range row {
				row[a] += 0x1p36
			}
		}
	}
	return f
}

// isolationPairs returns the (source, member) pairs that carry isolation
// bounds over f: the CellIndex paired with itself, and each LocalShard of
// a two- and a three-way split.
func isolationPairs(tb testing.TB, f *vec.Frame, opts CellIndexOptions) (tags []string, srcs []cellGroup, mems []*CellIndex) {
	tb.Helper()
	ix, err := NewCellIndexFrame(f, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tags, srcs, mems = []string{"self"}, []cellGroup{{ix: ix, dups: ix.dupCount, isoSq: ix.isoSq}}, []*CellIndex{ix}
	for _, s := range []int{2, 3} {
		sh, err := NewShardedIndexBackends(context.Background(), f, ShardedIndexOptions{Shards: s, Cell: opts}, localDialer)
		if err != nil {
			tb.Fatal(err)
		}
		for si, ls := range sh.backends {
			ls := ls.(*LocalShard)
			tags = append(tags, fmt.Sprintf("shard %d/%d", si, s))
			srcs = append(srcs, ls.groups[0])
			mems = append(mems, ls.groups[1].ix)
		}
	}
	return tags, srcs, mems
}

// checkIsolation runs the count pass of src against mem at level j and
// radius r, with and without src's isolation bounds, at every limit, and
// fails unless the outputs are identical. It returns how many source cells
// the bounds skip and whether the skip is on at all.
func checkIsolation(tb testing.TB, tag string, src cellGroup, mem *CellIndex, workers, j int, r float64, limits []int32) (skipped int, on bool) {
	tb.Helper()
	plain := src
	plain.dups, plain.isoSq = nil, nil
	mems := []cellGroup{{ix: mem}}
	for _, limit := range limits {
		got, want := make([]int32, src.ix.N()), make([]int32, src.ix.N())
		if err := crossCellCounts(context.Background(), workers, []cellGroup{src}, mems, j, r, limit, got); err != nil {
			tb.Fatal(err)
		}
		if err := crossCellCounts(context.Background(), workers, []cellGroup{plain}, mems, j, r, limit, want); err != nil {
			tb.Fatal(err)
		}
		if k := slices.Compare(got, want); k != 0 {
			for i := range got {
				if got[i] != want[i] {
					tb.Fatalf("%s: level %d r %v limit %d: point %d counts %d with the bounds, %d without (isoSq %g, dups %d)",
						tag, j, r, limit, i, got[i], want[i], src.isoSq[i], src.dups[i])
				}
			}
		}
	}
	slv := src.ix.level(j)
	jp := newJoinPass([]*cellLevel{slv, mem.level(j)}, r)
	for c := 0; c < slv.cells(); c++ {
		if jp.isolated(slv, c, &src) {
			skipped++
		}
	}
	if jp.down <= 0 && skipped > 0 {
		tb.Fatalf("%s: level %d: %d cells skipped with the bands off", tag, j, skipped)
	}
	return skipped, !math.IsInf(jp.iso, 1)
}

// TestCountPassIsolation checks that the isolation skip leaves every count
// pass bit-identical: at every ladder level, the pass with a source
// group's isolation bounds must match the pass without them. It covers the
// self pair and the LocalShard pairs of S = 2 and 3, d = 1..6, duplicate,
// ±0 and cell-edge rows, a frame on one axis-0 value, ladder and tied
// radii, limits n, 3 and n/3, one and three workers, and coordinates past
// 2⁴⁸/(d+1) cells, where the skip must turn off at the fine levels.
func TestCountPassIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	skipped, ties := 0, 0
	for d := 1; d <= 6; d++ {
		opts := CellIndexOptions{MinRadius: 0x1p-16} // dyadic sides at even levels
		for kind := 0; kind < 3; kind++ {
			n := 80 + rng.Intn(80)
			f := isolationFrame(rng, n, d, kind)
			tags, srcs, mems := isolationPairs(t, f, opts)
			offAt := -1
			for pi, src := range srcs {
				for j := 0; j <= src.ix.lad.top; j++ {
					tag := fmt.Sprintf("d=%d kind %d %s", d, kind, tags[pi])
					workers := 1 + 2*(j%2)
					k, on := checkIsolation(t, tag, src, mems[pi], workers, j, src.ix.lad.radius(j), countPassLimits(n))
					skipped += k
					if !on && offAt < 0 {
						offAt = j
					}
					if j%2 != 0 {
						continue
					}
					if r, ok := tiedRadius(rng, src.ix.frame, mems[pi].level(j)); ok {
						checkIsolation(t, tag+" tied", src, mems[pi], workers, j, r, countPassLimits(n))
						ties++
					}
				}
			}
			if kind == 2 && offAt != 0 {
				t.Fatalf("d=%d: the skip is on at level 0 past 2⁴⁸/(d+1) cell coordinates", d)
			}
		}
	}
	if skipped < 10_000 || ties < 500 {
		t.Fatalf("only %d source cells skipped and %d tied radii checked", skipped, ties)
	}
	t.Logf("%d source cells skipped, %d tied radii", skipped, ties)
}

// FuzzIsolationBounds checks dupTable against brute force over
// fuzzer-chosen rows: each byte of data is one coordinate, a multiple of
// 1/(1+step) with a sign bit (so ±0 and repeated axis-0 values are common)
// or, for bytes ≥ 0xf0, NaN, ±Inf or a subnormal. Against the full row set
// and against the rows whose index is not ≡ skip (mod 3), every row's
// duplicate count must equal the number of bitwise-identical members, and
// its isolation bound must not exceed any bitwise-distinct member's
// squared distance.
func FuzzIsolationBounds(f *testing.F) {
	f.Add(uint8(1), uint8(3), uint8(0), []byte{0, 1, 2, 3, 4, 0, 1, 9, 8, 0xf1, 0xf3, 7})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 1, 0, 1, 2, 3, 2, 3, 4, 5})
	f.Add(uint8(2), uint8(40), uint8(2), make([]byte, 90))
	f.Fuzz(func(t *testing.T, dim, step, skip uint8, data []byte) {
		d := 1 + int(dim)%6
		n := min(len(data)/d, 400)
		if n == 0 {
			return
		}
		fr := vec.NewFrame(n, d)
		for i, b := range data[:n*d] {
			x := float64(b>>1) / float64(1+int(step))
			switch b {
			case 0xf0, 0xf1:
				x = math.NaN()
			case 0xf2, 0xf3:
				x = math.Inf(1)
			case 0xf4, 0xf5:
				x = 0x1p-1070
			}
			if b&1 != 0 {
				x = -x
			}
			fr.Data()[i] = x
		}
		var sub []int32
		for i := 0; i < n; i++ {
			if i%3 != int(skip)%3 {
				sub = append(sub, int32(i))
			}
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		for _, members := range [][]int32{nil, sub} {
			dups, isoSq := dupTable(fr, fr, members, true)
			rows := members
			if rows == nil {
				rows = all
			}
			for i := 0; i < n; i++ {
				p, same, nearest := fr.Row(i), int32(0), math.Inf(1)
				for _, m := range rows {
					if sameBits(fr.Row(int(m)), p) {
						same++
					} else {
						nearest = min(nearest, p.DistSq(fr.Row(int(m))))
					}
				}
				if dups[i] != same {
					t.Fatalf("members %v: row %d %v: dups %d, want %d", members, i, p, dups[i], same)
				}
				if isoSq[i] > nearest {
					t.Fatalf("members %v: row %d %v: isoSq %g exceeds the nearest distinct member's %g", members, i, p, isoSq[i], nearest)
				}
			}
		}
	})
}

// sameBits reports whether a and b are bitwise identical.
func sameBits(a, b vec.Vector) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
