package vec

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestFrameRowAliasing(t *testing.T) {
	f := FrameOf(Of(1, 2), Of(3, 4), Of(5, 6))
	if f.N() != 3 || f.Dim() != 2 {
		t.Fatalf("shape = %d×%d, want 3×2", f.N(), f.Dim())
	}
	r1 := f.Row(1)
	if !r1.Equal(Of(3, 4)) {
		t.Fatalf("Row(1) = %v, want [3 4]", r1)
	}
	// Row is a view, not a copy: a write through the view is visible to the
	// frame and to every other view of the same row.
	r1[0] = 99
	if got := f.At(1, 0); got != 99 {
		t.Errorf("after writing through Row view, At(1,0) = %v, want 99", got)
	}
	if again := f.Row(1); again[0] != 99 {
		t.Errorf("second Row view sees %v, want 99", again[0])
	}
	// Neighboring rows are untouched, and the view's capacity is clipped so
	// an append cannot silently spill into row 2.
	if got := f.At(2, 0); got != 5 {
		t.Errorf("row 2 corrupted: At(2,0) = %v, want 5", got)
	}
	if cap(r1) != f.Dim() {
		t.Errorf("Row view cap = %d, want %d (three-index slice)", cap(r1), f.Dim())
	}
}

func TestFrameFromDataStrideMismatch(t *testing.T) {
	if _, err := FrameFromData(make([]float64, 7), 3); err == nil {
		t.Fatal("FrameFromData(7 coords, stride 3) should fail")
	} else if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("stride mismatch error = %v, want ErrDimMismatch", err)
	}
	if _, err := FrameFromData(make([]float64, 6), 0); err == nil {
		t.Fatal("FrameFromData with stride 0 should fail")
	}
	if _, err := FrameFromData(make([]float64, 6), -2); err == nil {
		t.Fatal("FrameFromData with negative stride should fail")
	}
	f, err := FrameFromData([]float64{1, 2, 3, 4, 5, 6}, 3)
	if err != nil {
		t.Fatalf("FrameFromData: %v", err)
	}
	if f.N() != 2 || !f.Row(1).Equal(Of(4, 5, 6)) {
		t.Fatalf("frame = %d rows, Row(1) = %v", f.N(), f.Row(1))
	}
	if _, err := FrameFromVectors([]Vector{Of(1, 2), Of(3)}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("ragged FrameFromVectors error = %v, want ErrDimMismatch", err)
	}
}

func TestFrameKernelsMatchVector(t *testing.T) {
	rows := []Vector{Of(0, 0), Of(1, 0), Of(0.25, -0.75), Of(2, 2)}
	f := FrameOf(rows...)
	q := Of(0.5, 0.5)
	out := make([]float64, f.N())
	f.DistSqInto(q, out)
	for i, r := range rows {
		if want := r.DistSq(q); out[i] != want {
			t.Errorf("DistSqInto[%d] = %v, want %v", i, out[i], want)
		}
		if got := f.DistSq(i, q); got != rows[i].DistSq(q) {
			t.Errorf("DistSq(%d) = %v, want %v", i, got, rows[i].DistSq(q))
		}
	}
	if n := f.CountWithin(q, 0.75); n != 2 {
		t.Errorf("CountWithin = %d, want 2 (rows 0 and 1 at dist ~0.707)", n)
	}
	centers := []Vector{Of(2, 2), Of(0, 0), Of(1, 0)}
	if best, _ := f.Nearest(0, centers); best != 1 {
		t.Errorf("Nearest(row 0) = center %d, want 1", best)
	}
	// Equidistant centers tie toward the lowest index.
	if best, _ := FrameOf(Of(0.5, 0)).Nearest(0, []Vector{Of(0, 0), Of(1, 0)}); best != 0 {
		t.Errorf("tie should go to the lowest center index, got %d", best)
	}
	g := f.Gather([]int32{3, 1})
	if g.N() != 2 || !g.Row(0).Equal(Of(2, 2)) || !g.Row(1).Equal(Of(1, 0)) {
		t.Errorf("Gather([3 1]) wrong: %v, %v", g.Row(0), g.Row(1))
	}
}

// TestFrameConcurrentSweeps exercises the read-only sharing contract: many
// goroutines sweeping one frame with every kernel concurrently. Run with
// -race to validate.
func TestFrameConcurrentSweeps(t *testing.T) {
	const n, d = 512, 4
	f := NewFrame(n, d)
	for i := 0; i < n; i++ {
		row := f.Row(i)
		for j := range row {
			row[j] = float64(i*d+j) * 0.001
		}
	}
	q := Of(0.1, 0.2, 0.3, 0.4)
	want := f.CountWithin(q, 0.9)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, n)
			for iter := 0; iter < 20; iter++ {
				if got := f.CountWithin(q, 0.9); got != want {
					t.Errorf("concurrent CountWithin = %d, want %d", got, want)
					return
				}
				f.DistSqInto(q, out)
				for i := 0; i < n; i += 37 {
					_ = f.DistSq(i, q)
					_ = f.Row(i)
				}
			}
		}()
	}
	wg.Wait()
}

// scanBox is the per-row bounding-box scan Bounds replaced: the first
// row, widened by every later one.
func scanBox(f *Frame) (lo, hi Vector) {
	lo, hi = f.Row(0).Clone(), f.Row(0).Clone()
	for i := 1; i < f.N(); i++ {
		for a, x := range f.Row(i) {
			if x < lo[a] {
				lo[a] = x
			}
			if x > hi[a] {
				hi[a] = x
			}
		}
	}
	return lo, hi
}

// TestFrameBounds checks Bounds against the per-row scan on a plain frame,
// on MutableFrame views (a prefix, a View after an append into spare
// capacity, and a Slice of the delta rows), and on an empty frame; and
// that repeated calls return the cached slices.
func TestFrameBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := func(n int) *Frame {
		f := NewFrame(n, 3)
		for i := range f.data {
			f.data[i] = rng.NormFloat64()
		}
		return f
	}
	base := rows(200)
	m, err := NewMutableFrame(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(rows(50)); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Frame{
		"frame":   base,
		"view":    m.View(120),
		"all":     m.View(250),
		"slice":   m.Slice(180, 250),
		"one-row": m.Slice(7, 8),
	} {
		lo, hi := f.Bounds()
		wantLo, wantHi := scanBox(f)
		if !slices.Equal(lo, wantLo) || !slices.Equal(hi, wantHi) {
			t.Errorf("%s: Bounds = %v..%v, scan %v..%v", name, lo, hi, wantLo, wantHi)
		}
		if lo2, hi2 := f.Bounds(); &lo2[0] != &lo[0] || &hi2[0] != &hi[0] {
			t.Errorf("%s: a second Bounds call rescanned", name)
		}
	}
	if lo, hi := NewFrame(0, 2).Bounds(); lo != nil || hi != nil {
		t.Errorf("empty frame Bounds = %v, %v, want nil", lo, hi)
	}
}

// TestFrameBoundsConcurrent races first Bounds calls on one shared frame
// against each other and against read-only sweeps. Run with -race.
func TestFrameBoundsConcurrent(t *testing.T) {
	f := NewFrame(1000, 2)
	for i := range f.data {
		f.data[i] = float64(i%97) - 40
	}
	wantLo, wantHi := scanBox(f)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := f.Bounds()
			if !slices.Equal(lo, wantLo) || !slices.Equal(hi, wantHi) {
				t.Errorf("concurrent Bounds = %v..%v, want %v..%v", lo, hi, wantLo, wantHi)
			}
			_ = f.CountWithin(Of(0, 0), 10)
		}()
	}
	wg.Wait()
}
