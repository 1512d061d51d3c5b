package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndDim(t *testing.T) {
	v := New(5)
	if v.Dim() != 5 {
		t.Fatalf("Dim = %d, want 5", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("New vector not zero at %d: %v", i, x)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestOfAndClone(t *testing.T) {
	v := Of(1, 2, 3)
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestAddSubScale(t *testing.T) {
	v := Of(1, 2, 3)
	w := Of(4, 5, 6)
	if got := v.Add(w); !got.Equal(Of(5, 7, 9)) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(Of(3, 3, 3)) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); !got.Equal(Of(2, 4, 6)) {
		t.Errorf("Scale = %v", got)
	}
}

func TestAddDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	Of(1, 2).Add(Of(1, 2, 3))
}

func TestInPlaceOps(t *testing.T) {
	v := Of(1, 2)
	v.AddInPlace(Of(1, 1)).ScaleInPlace(3)
	if !v.Equal(Of(6, 9)) {
		t.Errorf("in-place chain = %v", v)
	}
}

func TestDotNormDist(t *testing.T) {
	v := Of(3, 4)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq = %v, want 25", got)
	}
	w := Of(0, 0)
	if got := v.Dist(w); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := v.Dot(Of(1, 1)); got != 7 {
		t.Errorf("Dot = %v, want 7", got)
	}
}

func TestClamp(t *testing.T) {
	got := Of(-2, 0.5, 7).Clamp(0, 1)
	if !got.Equal(Of(0, 0.5, 1)) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Of(1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if Of(1, math.NaN()).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if Of(math.Inf(1)).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]Vector{Of(0, 0), Of(2, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(Of(1, 2)) {
		t.Errorf("Mean = %v", m)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) succeeded, want error")
	}
	if _, err := Mean([]Vector{Of(1), Of(1, 2)}); err == nil {
		t.Error("Mean with mismatched dims succeeded, want error")
	}
}

func TestApproxEqual(t *testing.T) {
	if !Of(1, 2).ApproxEqual(Of(1.0000001, 2), 1e-3) {
		t.Error("ApproxEqual false for close vectors")
	}
	if Of(1, 2).ApproxEqual(Of(1, 2, 3), 1) {
		t.Error("ApproxEqual true for different dims")
	}
}

// tame maps arbitrary quick-generated floats into a bounded, finite range so
// property tests exercise arithmetic identities rather than overflow.
func tame(xs []float64) Vector {
	out := make(Vector, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Remainder(x, 1e6)
	}
	return out
}

// Property: triangle inequality and symmetry of Dist.
func TestDistProperties(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		u, v, w := tame(a[:]), tame(b[:]), tame(c[:])
		if math.Abs(u.Dist(v)-v.Dist(u)) > 1e-9 {
			return false
		}
		return u.Dist(w) <= u.Dist(v)+v.Dist(w)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy–Schwarz |⟨u,v⟩| ≤ ‖u‖‖v‖.
func TestCauchySchwarz(t *testing.T) {
	f := func(a, b [6]float64) bool {
		u, v := tame(a[:]), tame(b[:])
		return math.Abs(u.Dot(v)) <= u.Norm()*v.Norm()*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatalf("Set/At mismatch: %v %v", m.At(0, 0), m.At(1, 2))
	}
	r := m.Row(1)
	if r[2] != 5 {
		t.Fatal("Row does not alias storage")
	}
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases storage")
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([]Vector{Of(1, 2), Of(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v", m.At(1, 0))
	}
	if _, err := MatrixFromRows(nil); err == nil {
		t.Error("MatrixFromRows(nil) succeeded")
	}
	if _, err := MatrixFromRows([]Vector{Of(1), Of(1, 2)}); err == nil {
		t.Error("ragged MatrixFromRows succeeded")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := MatrixFromRows([]Vector{Of(1, 0), Of(0, 2)})
	got := m.MulVec(Of(3, 4))
	if !got.Equal(Of(3, 8)) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	m, _ := MatrixFromRows([]Vector{Of(1, 2, 3), Of(4, 5, 6)})
	x := Of(0.5, -1, 2)
	dst := New(2)
	m.MulVecInto(dst, x)
	if !dst.Equal(m.MulVec(x)) {
		t.Errorf("MulVecInto = %v, MulVec = %v", dst, m.MulVec(x))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecInto mismatch did not panic")
		}
	}()
	m.MulVecInto(New(3), x)
}

func TestTMulVecIsTranspose(t *testing.T) {
	m, _ := MatrixFromRows([]Vector{Of(1, 2, 3), Of(4, 5, 6)})
	x := Of(1, -1)
	got := m.TMulVec(x)
	want := Of(1-4, 2-5, 3-6)
	if !got.ApproxEqual(want, 1e-12) {
		t.Errorf("TMulVec = %v, want %v", got, want)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec mismatch did not panic")
		}
	}()
	m.MulVec(Of(1, 2))
}

func TestGramSchmidtOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		d := 8
		m := NewMatrix(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		if err := m.GramSchmidt(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1.0
				}
				got := m.Row(i).Dot(m.Row(j))
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("⟨r%d,r%d⟩ = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

func TestGramSchmidtDependentRows(t *testing.T) {
	m, _ := MatrixFromRows([]Vector{Of(1, 2), Of(2, 4)})
	if err := m.GramSchmidt(); err == nil {
		t.Error("GramSchmidt on dependent rows succeeded, want error")
	}
}

// Property: rotation by an orthonormal basis preserves norms.
func TestRotationPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 6
	m := NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	if err := m.GramSchmidt(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := make(Vector, d)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		y := m.MulVec(x)
		if math.Abs(y.Norm()-x.Norm()) > 1e-8*math.Max(1, x.Norm()) {
			t.Fatalf("rotation changed norm: %v vs %v", y.Norm(), x.Norm())
		}
		// And TMulVec inverts it.
		back := m.TMulVec(y)
		if !back.ApproxEqual(x, 1e-8) {
			t.Fatalf("TMulVec∘MulVec != id: %v vs %v", back, x)
		}
	}
}
