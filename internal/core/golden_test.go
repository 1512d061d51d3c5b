package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// centerBits is a CenterResult's released values as the bit patterns the
// golden test pins: the center's coordinates, then the radius.
func centerBits(res CenterResult) []uint64 {
	out := make([]uint64, 0, len(res.Center)+1)
	for _, x := range res.Center {
		out = append(out, math.Float64bits(x))
	}
	return append(out, math.Float64bits(res.Radius))
}

// TestGoodCenterGolden pins direct GoodCenterFrame releases bit for bit in
// the two regimes the public golden test does not reach: a JL projection
// to k < d (forced through Profile.JLDimCap, so the partition runs on a
// fresh projected frame) and the hash coder (d = 16 at a box side too
// small for the indices to bit-pack). Each runs serially and on the
// 3-worker count pass at n ≥ minParallelPoints, which must agree.
func TestGoodCenterGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		d, cap int
		r      float64
		k      int // projection dimension the case must reach
		hash   bool
		want   []uint64
	}{
		{name: "jl-d12-k4", d: 12, cap: 4, r: 0.02, k: 4, want: []uint64{
			0x3fe24ed7770b6bd8, 0x3fd7e7c399a56387, 0x3fd68d4525e20b79, 0x3fd79f451997fa10,
			0x3fe76a2c62507600, 0x3fd8fab7d82c2e91, 0x3fd978fca96df628, 0x3fe7b0061b41ed9e,
			0x3fd1fb55ec14eca6, 0x3fcfb66d7900b212, 0x3fe29826187a5468, 0x3fd1e53e5e1176b1,
			0x3fc999999999999a,
		}},
		{name: "hash-d16", d: 16, r: 0.01, k: 16, hash: true, want: []uint64{
			0x3fe76315d46923e2, 0x3fe54133372f59a6, 0x3fe3f9018cd49a8f, 0x3fdc7f0bef8cefff,
			0x3fe64cbe78ee31f0, 0x3fda2c69fb8da59e, 0x3fe2321967bd964a, 0x3fe2a6b601643467,
			0x3fd8671dcea292f4, 0x3fd753c385053432, 0x3fe6b4b931487704, 0x3fe60a695beb3cc4,
			0x3fe6f7edcd5f81a6, 0x3fd781908424d8da, 0x3fe5e5ba68623fe6, 0x3fda6a2eb75063c7,
			0x3fc999999999999a,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid := testGrid(t, 1024, tc.d)
			inst := plantedInstance(t, rand.New(rand.NewSource(int64(tc.d))), grid, 2500, 1500, tc.r)
			f := frameOf(t, inst.Points)
			prof := DefaultProfile()
			if tc.cap > 0 {
				prof.JLDimCap = tc.cap
			}
			if _, packs := newBitsCoder(f, prof.BoxSideFactor*3*tc.r); packs == tc.hash {
				t.Fatalf("bit packing feasible = %v on the input frame", packs)
			}
			for _, workers := range []int{1, 3} {
				prm := testParams(t, grid, 1200)
				prm.Profile = prof
				prm.Profile.Workers = workers
				res, err := GoodCenterFrame(rand.New(rand.NewSource(17)), f, tc.r, prm)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				if res.K != tc.k {
					t.Fatalf("workers %d: projection dimension %d, want %d", workers, res.K, tc.k)
				}
				if got := centerBits(res); !slices.Equal(got, tc.want) {
					t.Errorf("workers %d: release changed:\n got %s\nwant %s", workers, hexList(got), hexList(tc.want))
				}
			}
		})
	}
}

// hexList prints bit patterns as the Go literal the golden table uses.
func hexList(bits []uint64) string {
	s := "{"
	for i, b := range bits {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%#016x", b)
	}
	return s + "}"
}
