package geometry

import (
	"context"
	"math"
	"testing"

	"privcluster/internal/vec"
)

func TestCountWithinNegativeRadius(t *testing.T) {
	ix, err := NewDistanceIndexFrame(frameOf(t, []vec.Vector{vec.Of(0), vec.Of(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.CountWithin(0, -1); got != 0 {
		t.Errorf("CountWithin(-1) = %d, want 0", got)
	}
	// Radius 0 still counts the point itself.
	if got := ix.CountWithin(0, 0); got != 1 {
		t.Errorf("CountWithin(0) = %d, want 1", got)
	}
}

func TestHugeGridArithmetic(t *testing.T) {
	// |X| = 2^48 in d = 4: radius-grid sizes and index round trips must not
	// overflow.
	g, err := NewGrid(1<<48, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := g.RadiusGridSize()
	if m <= 0 {
		t.Fatalf("RadiusGridSize overflowed: %d", m)
	}
	if g.RadiusFromIndex(m-1) < g.MaxDistance() {
		t.Error("max grid radius does not cover the diameter")
	}
	if s := g.Step(); s <= 0 || s > 1e-13 {
		t.Errorf("Step = %v", s)
	}
}

func TestBuildLStepTEqualsN(t *testing.T) {
	pts := []vec.Vector{vec.Of(0), vec.Of(0.5), vec.Of(1)}
	ix, err := NewDistanceIndexFrame(frameOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := ix.BuildLStep(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// At r covering everything, every capped count is 3 ⇒ L = 3.
	if got := ls.Eval(2); got != 3 {
		t.Errorf("L(2) = %v, want 3", got)
	}
	// At r = 0, every ball holds one point ⇒ L = 1.
	if got := ls.Eval(0); got != 1 {
		t.Errorf("L(0) = %v, want 1", got)
	}
}

func TestLStepEvalBetweenBreaks(t *testing.T) {
	pts := []vec.Vector{vec.Of(0), vec.Of(0.4), vec.Of(0.9)}
	ix, _ := NewDistanceIndexFrame(frameOf(t, pts))
	ls, err := ix.BuildLStep(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// L must be right-continuous: value at a break applies from the break.
	for i, b := range ls.Breaks {
		if got := ls.Eval(b); got != ls.Vals[i] {
			t.Errorf("Eval(break %d) = %v, want %v", i, got, ls.Vals[i])
		}
		if got := ls.Eval(b + 1e-12); got != ls.Vals[i] {
			t.Errorf("Eval(break %d + ε) = %v, want %v", i, got, ls.Vals[i])
		}
	}
	if got := ls.Eval(math.Inf(1)); got != ls.Vals[len(ls.Vals)-1] {
		t.Errorf("Eval(∞) = %v", got)
	}
}

// TestHostileLadderRejected: options that would derive a non-finite or
// absurdly deep radius ladder are construction errors for every
// constructor, never a huge allocation or a silent one-level ladder.
func TestHostileLadderRejected(t *testing.T) {
	f := vec.NewFrame(4, 2)
	for i := 0; i < 4; i++ {
		f.SetRow(i, vec.Vector{0.1 * float64(i), 0.2})
	}
	for _, tc := range []struct {
		name string
		opts CellIndexOptions
	}{
		{"levels-per-octave", CellIndexOptions{LevelsPerOctave: 0xFFFFFFFF}},
		{"subnormal-min", CellIndexOptions{MinRadius: 5e-324}},
		{"nan-min", CellIndexOptions{MinRadius: math.NaN()}},
		{"inf-max", CellIndexOptions{MaxRadius: math.Inf(1)}},
	} {
		if _, err := NewCellIndexFrame(f, tc.opts); err == nil {
			t.Errorf("%s: NewCellIndexFrame accepted", tc.name)
		}
		if _, err := NewShardedIndexBackends(context.Background(), f, ShardedIndexOptions{Shards: 2, Cell: tc.opts}, localDialer); err == nil {
			t.Errorf("%s: NewShardedIndexBackends accepted", tc.name)
		}
		if _, err := NewMutableCellIndexFrame(f, tc.opts); err == nil {
			t.Errorf("%s: NewMutableCellIndexFrame accepted", tc.name)
		}
	}
}
