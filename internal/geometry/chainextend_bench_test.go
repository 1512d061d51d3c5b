package geometry_test

import (
	"testing"

	"privcluster/internal/bench"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// BenchmarkChainExtend times one epoch-chain extension: a 64-row append
// onto a mutable index over the n = 6000 planted ball (bench.IndexWorkload,
// d = 2, the handle's 2¹⁶ grid ladder) whose head swept ladder levels
// 0–24, extended to the new epoch: the duplicate table, then at every level
// the member-driven pass (every row against the appended ones) and the
// appended rows against the old ones, capped at t = n/2. The index, the
// head's blocks and every level of the new epoch's view are built before
// the timer; each iteration puts the head back outside the timer.
func BenchmarkChainExtend(b *testing.B) {
	const n, batch, levels = 6000, 64, 25
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, t, err := bench.IndexWorkload(1, n+batch, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	base, err := vec.FrameFromVectors(pts[:n])
	if err != nil {
		b.Fatal(err)
	}
	add, err := vec.FrameFromVectors(pts[n:])
	if err != nil {
		b.Fatal(err)
	}
	opts := geometry.CellIndexOptions{MinRadius: grid.RadiusUnit(), MaxRadius: grid.MaxDistance()}
	x, err := geometry.NewChainExtension(base, add, opts, levels, int32(t))
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	x.Reset()
	if err := x.Run(); err != nil { // builds the new epoch's levels
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x.Reset()
		b.StartTimer()
		if err := x.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
