package jl

import (
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/vec"
)

func randomPoints(rng *rand.Rand, n, d int, scale float64) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = rng.NormFloat64() * scale
		}
		pts[i] = p
	}
	return pts
}

func frame(t *testing.T, pts []vec.Vector) *vec.Frame {
	t.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ProjectionBound returns the per-axis half-width of Lemma 4.9: for m points
// of diameter diam in R^d and a random basis, with probability ≥ 1−β every
// pairwise difference projects onto every basis vector with magnitude at
// most 2·sqrt(ln(d·m/β)/d)·diam.
func ProjectionBound(d, m int, beta, diam float64) float64 {
	if d <= 0 || m <= 0 || beta <= 0 || beta >= 1 {
		panic("jl: ProjectionBound parameters out of range")
	}
	return 2 * math.Sqrt(math.Log(float64(d)*float64(m)/beta)/float64(d)) * diam
}

func TestNewTransformValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewTransform(rng, 0, 5); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewTransform(rng, 5, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestIdentityWhenKGeD(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, err := NewTransform(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.OutDim() != 4 {
		t.Fatalf("expected identity with OutDim 4, got OutDim=%d", tr.OutDim())
	}
	f := vec.NewFrame(1, 4)
	f.SetRow(0, vec.Of(1, 2, 3, 4))
	if got := tr.ApplyFrame(f); got != f {
		t.Errorf("identity ApplyFrame = %v, want the input frame itself", got)
	}
}

func TestApplyPanicsOnWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, _ := NewTransform(rng, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyFrame with wrong dim did not panic")
		}
	}()
	tr.ApplyFrame(vec.NewFrame(1, 2))
}

func TestDistancePreservation(t *testing.T) {
	// Lemma 4.10 with η = 1/2: squared distances preserved within (1±1/2)
	// with probability ≥ 1−β over the draw of A.
	rng := rand.New(rand.NewSource(4))
	n, d := 40, 200
	beta := 0.1
	eta := 0.5
	k := TargetDim(n, eta, beta)
	pts := randomPoints(rng, n, d, 1)

	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		tr, err := NewTransform(rng, d, k)
		if err != nil {
			t.Fatal(err)
		}
		proj := tr.ApplyFrame(frame(t, pts))
		ok := true
		for i := 0; i < n && ok; i++ {
			for j := i + 1; j < n && ok; j++ {
				orig := pts[i].DistSq(pts[j])
				got := proj.Row(i).DistSq(proj.Row(j))
				if got < (1-eta)*orig || got > (1+eta)*orig {
					ok = false
				}
			}
		}
		if !ok {
			failures++
		}
	}
	if frac := float64(failures) / trials; frac > beta {
		t.Errorf("distortion failure rate %v exceeds beta %v", frac, beta)
	}
}

func TestTargetDimFormulaAndPanics(t *testing.T) {
	k := TargetDim(1000, 0.5, 0.1)
	want := int(math.Ceil(8 / 0.25 * math.Log(2*1e6/0.1)))
	if k != want {
		t.Errorf("TargetDim = %d, want %d", k, want)
	}
	if TargetDim(0, 0.5, 0.1) != TargetDim(2, 0.5, 0.1) {
		t.Error("small n not clamped")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TargetDim(eta=0) did not panic")
		}
	}()
	TargetDim(10, 0, 0.1)
}

func TestRandomBasisOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{1, 2, 5, 16} {
		b, err := RandomBasis(rng, d)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if got := b.Row(i).Dot(b.Row(j)); math.Abs(got-want) > 1e-9 {
					t.Fatalf("d=%d ⟨%d,%d⟩=%v", d, i, j, got)
				}
			}
		}
	}
	if _, err := RandomBasis(rng, 0); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestProjectionBoundEmpirical(t *testing.T) {
	// Lemma 4.9: projections of pairwise differences onto random basis
	// vectors are short. Verify the stated bound holds empirically.
	rng := rand.New(rand.NewSource(6))
	d, m := 64, 20
	beta := 0.1
	pts := randomPoints(rng, m, d, 1)
	diam := 0.0
	for i := range pts {
		for j := range pts {
			if dd := pts[i].Dist(pts[j]); dd > diam {
				diam = dd
			}
		}
	}
	bound := ProjectionBound(d, m, beta, diam)

	failures := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		basis, err := RandomBasis(rng, d)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for i := 0; i < m && ok; i++ {
			for j := i + 1; j < m && ok; j++ {
				diff := pts[i].Sub(pts[j])
				for ax := 0; ax < d; ax++ {
					if math.Abs(diff.Dot(basis.Row(ax))) > bound {
						ok = false
						break
					}
				}
			}
		}
		if !ok {
			failures++
		}
	}
	if frac := float64(failures) / trials; frac > beta {
		t.Errorf("projection bound failure rate %v exceeds %v", frac, beta)
	}
}

func TestProjectionBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ProjectionBound(d=0) did not panic")
		}
	}()
	ProjectionBound(0, 1, 0.1, 1)
}

func TestApplyAllLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, _ := NewTransform(rng, 10, 3)
	pts := randomPoints(rng, 5, 10, 1)
	out := tr.ApplyFrame(frame(t, pts))
	if out.N() != 5 {
		t.Fatalf("ApplyFrame returned %d points", out.N())
	}
	if out.Dim() != 3 {
		t.Fatalf("projected dim = %d", out.Dim())
	}
}
