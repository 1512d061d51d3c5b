package recconcave

import (
	"math"
	"math/rand"
	"testing"
)

func mustStep(t *testing.T, n int64, breaks []int64, vals []float64) *StepFn {
	t.Helper()
	s, err := NewStepFn(n, breaks, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStepFnValidation(t *testing.T) {
	cases := []struct {
		name   string
		n      int64
		breaks []int64
		vals   []float64
	}{
		{"zero domain", 0, []int64{0}, []float64{1}},
		{"empty", 10, nil, nil},
		{"len mismatch", 10, []int64{0}, []float64{1, 2}},
		{"first break nonzero", 10, []int64{1}, []float64{1}},
		{"not increasing", 10, []int64{0, 5, 5}, []float64{1, 2, 3}},
		{"break outside", 10, []int64{0, 10}, []float64{1, 2}},
		{"nan value", 10, []int64{0}, []float64{math.NaN()}},
	}
	for _, c := range cases {
		if _, err := NewStepFn(c.n, c.breaks, c.vals); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestEvalPieces(t *testing.T) {
	s := mustStep(t, 10, []int64{0, 3, 7}, []float64{1, 5, 2})
	want := []float64{1, 1, 1, 5, 5, 5, 5, 2, 2, 2}
	for f := int64(0); f < 10; f++ {
		if got := s.Eval(f); got != want[f] {
			t.Errorf("Eval(%d) = %v, want %v", f, got, want[f])
		}
	}
}

func TestEvalPanicsOutside(t *testing.T) {
	s := ConstStepFn(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Eval(5) on domain [0,5) did not panic")
		}
	}()
	s.Eval(5)
}

func TestMaxMin(t *testing.T) {
	s := mustStep(t, 10, []int64{0, 3, 7}, []float64{1, 5, 2})
	if s.Max() != 5 || s.Min() != 1 {
		t.Errorf("Max/Min = %v/%v", s.Max(), s.Min())
	}
}

func TestFromValuesCompacts(t *testing.T) {
	s, err := FromValues([]float64{1, 1, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pieces() != 3 {
		t.Errorf("Pieces = %d, want 3", s.Pieces())
	}
	if s.Eval(0) != 1 || s.Eval(2) != 2 || s.Eval(5) != 1 {
		t.Error("FromValues evaluation mismatch")
	}
	if _, err := FromValues(nil); err == nil {
		t.Error("FromValues(nil) succeeded")
	}
}

// bruteWindowMinMax computes L(w) directly for small domains.
func bruteWindowMinMax(s *StepFn, w int64) float64 {
	if w >= s.N() {
		return s.Min()
	}
	best := math.Inf(-1)
	for x := int64(0); x+w <= s.N(); x++ {
		m := math.Inf(1)
		for f := x; f < x+w; f++ {
			if v := s.Eval(f); v < m {
				m = v
			}
		}
		if m > best {
			best = m
		}
	}
	return best
}

func TestWindowMinMaxAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := int64(5 + rng.Intn(60))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(8))
		}
		s, err := FromValues(vals)
		if err != nil {
			t.Fatal(err)
		}
		for w := int64(1); w <= n+2; w++ {
			got := s.WindowMinMax(w)
			want := bruteWindowMinMax(s, w)
			if got != want {
				t.Fatalf("trial %d: WindowMinMax(n=%d, w=%d) = %v, want %v (vals=%v)",
					trial, n, w, got, want, vals)
			}
		}
	}
}

// manyPieces returns a step function of 100 pieces of random lengths 1–8
// and values 0–11, or rising then falling values when quasi is set.
func manyPieces(t *testing.T, rng *rand.Rand, quasi bool) *StepFn {
	t.Helper()
	const m = 100
	breaks, vals := make([]int64, m), make([]float64, m)
	var x int64
	for i := range breaks {
		breaks[i], vals[i] = x, float64(rng.Intn(12))
		if quasi {
			vals[i] = float64(min(i, m-i))
		}
		x += int64(1 + rng.Intn(8))
	}
	return mustStep(t, x, breaks, vals)
}

// TestWindowMinMaxManyPieces checks step functions of more than 64 pieces,
// with windows spanning many of them, against the brute force.
func TestWindowMinMaxManyPieces(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		s := manyPieces(t, rng, trial%2 == 1)
		for _, w := range []int64{1, 2, 3, 7, 16, 40, 100, 255, s.N() / 2, s.N() - 1} {
			if got, want := s.WindowMinMax(w), bruteWindowMinMax(s, w); got != want {
				t.Fatalf("trial %d: WindowMinMax(n=%d, w=%d) = %v, want %v", trial, s.N(), w, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestWindowMinMaxAllocs: RecConcave's scale search calls WindowMinMax
// once per window width, and the call allocates nothing, at any piece
// count.
func TestWindowMinMaxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random, so allocation counts vary")
	}
	rng := rand.New(rand.NewSource(3))
	for _, quasi := range []bool{false, true} {
		s := manyPieces(t, rng, quasi)
		allocs := testing.AllocsPerRun(20, func() {
			for w := int64(1); w < s.N(); w *= 2 {
				s.WindowMinMax(w)
			}
		})
		if allocs != 0 {
			t.Errorf("quasi-concave %v: WindowMinMax over %d pieces allocates %.1f objects per width sweep, want 0", quasi, len(s.breaks), allocs)
		}
	}
}

func TestWindowMinMaxLargeDomainSparsePieces(t *testing.T) {
	// Domain of size 2^40 with a narrow high plateau.
	n := int64(1) << 40
	s := mustStep(t, n, []int64{0, 1 << 20, 1<<20 + 1000}, []float64{0, 10, 0})
	if got := s.WindowMinMax(1000); got != 10 {
		t.Errorf("WindowMinMax(1000) = %v, want 10", got)
	}
	if got := s.WindowMinMax(1001); got != 0 {
		t.Errorf("WindowMinMax(1001) = %v, want 0", got)
	}
	if got := s.WindowMinMax(n); got != 0 {
		t.Errorf("WindowMinMax(full) = %v, want 0", got)
	}
}

func TestWindowMinMaxPanicsOnBadWidth(t *testing.T) {
	s := ConstStepFn(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("WindowMinMax(0) did not panic")
		}
	}()
	s.WindowMinMax(0)
}

func TestBlockMin(t *testing.T) {
	s := mustStep(t, 12, []int64{0, 3, 7}, []float64{1, 5, 2})
	// Blocks of width 4: [0,4): min(1,5)=1; [4,8): min(5,2)=2; [8,12): 2.
	if got := s.BlockMin(0, 4); got != 1 {
		t.Errorf("BlockMin(0,4) = %v", got)
	}
	if got := s.BlockMin(1, 4); got != 2 {
		t.Errorf("BlockMin(1,4) = %v", got)
	}
	if got := s.BlockMin(2, 4); got != 2 {
		t.Errorf("BlockMin(2,4) = %v", got)
	}
	// Truncated final block.
	if got := s.BlockMin(1, 7); got != 2 {
		t.Errorf("BlockMin(1,7) = %v", got)
	}
}

func TestBlockMinPanicsOutside(t *testing.T) {
	s := ConstStepFn(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("BlockMin outside domain did not panic")
		}
	}()
	s.BlockMin(2, 4)
}

func TestLevelRegion(t *testing.T) {
	s := mustStep(t, 20, []int64{0, 5, 12}, []float64{0, 7, 0})
	lo, hi, ok := s.LevelRegion(3)
	if !ok || lo != 5 || hi != 12 {
		t.Errorf("LevelRegion = (%d,%d,%v), want (5,12,true)", lo, hi, ok)
	}
	if _, _, ok := s.LevelRegion(10); ok {
		t.Error("LevelRegion above max reported ok")
	}
	// Threshold below everything: whole domain.
	lo, hi, ok = s.LevelRegion(-1)
	if !ok || lo != 0 || hi != 20 {
		t.Errorf("LevelRegion(-1) = (%d,%d,%v)", lo, hi, ok)
	}
}

func TestIsQuasiConcave(t *testing.T) {
	qc := [][]float64{
		{1, 2, 3, 3, 2},
		{5},
		{1, 1, 1},
		{3, 2, 1},
		{1, 2, 3},
	}
	for _, vals := range qc {
		s, _ := FromValues(vals)
		if !s.IsQuasiConcave() {
			t.Errorf("%v reported not quasi-concave", vals)
		}
	}
	notQC := [][]float64{
		{1, 3, 2, 3},
		{2, 1, 2},
		{3, 1, 3, 1},
	}
	for _, vals := range notQC {
		s, _ := FromValues(vals)
		if s.IsQuasiConcave() {
			t.Errorf("%v reported quasi-concave", vals)
		}
	}
}
