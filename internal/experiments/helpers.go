package experiments

import (
	"privcluster/internal/core"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

// frameOf packs an instance's points into one flat frame, converted once
// and shared by every index built over the instance.
func frameOf(points []vec.Vector) *vec.Frame {
	f, err := vec.FrameFromVectors(points)
	if err != nil {
		panic(err)
	}
	return f
}

// indexOf builds the ball index prm selects over a frame.
func indexOf(f *vec.Frame, prm core.Params) geometry.BallIndex {
	ix, err := core.NewBallIndexFrame(f, prm.Grid, prm.Index, prm.Profile.Workers)
	if err != nil {
		panic(err)
	}
	return ix
}

// quantizeAll lifts 1-D values onto a 1-D grid as points.
func quantizeAll(grid geometry.Grid, vals []float64) []vec.Vector {
	out := make([]vec.Vector, len(vals))
	for i, v := range vals {
		out[i] = grid.Quantize(vec.Vector{v})
	}
	return out
}
