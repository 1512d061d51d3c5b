package noise

import (
	"math"
	"math/rand"
	"testing"
)

func TestLaplaceMomentsAndSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	const scale = 2.0
	var sum, sumSq float64
	neg := 0
	for i := 0; i < n; i++ {
		x := Laplace(rng, scale)
		sum += x
		sumSq += x * x
		if x < 0 {
			neg++
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// Var(Lap(λ)) = 2λ² = 8.
	if math.Abs(variance-8) > 0.3 {
		t.Errorf("Laplace variance = %v, want ~8", variance)
	}
	frac := float64(neg) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("Laplace negative fraction = %v, want ~0.5", frac)
	}
}

// LaplaceTail returns P[|Lap(scale)| > x] = exp(−x/scale) for x ≥ 0.
func LaplaceTail(scale, x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-x / scale)
}

func TestLaplaceTailMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 100000
	const scale = 1.5
	x := 3.0
	exceed := 0
	for i := 0; i < n; i++ {
		if math.Abs(Laplace(rng, scale)) > x {
			exceed++
		}
	}
	want := LaplaceTail(scale, x)
	got := float64(exceed) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical tail %v vs analytic %v", got, want)
	}
}

// seqSource is a rand.Source that returns vals in order, then 1<<62.
type seqSource struct{ vals []int64 }

func (s *seqSource) Int63() int64 {
	if len(s.vals) == 0 {
		return 1 << 62
	}
	v := s.vals[0]
	s.vals = s.vals[1:]
	return v
}

func (s *seqSource) Seed(int64) {}

// TestLaplaceNeverInfinite: a uniform draw of at most 2⁻⁵⁵ would make the
// inverse CDF take ln(0). Laplace redraws it and returns what the next draw
// alone gives, so no other draw's value changes.
func TestLaplaceNeverInfinite(t *testing.T) {
	for _, first := range []int64{0, 1, 255, 256} {
		const next = 12345678901234567
		got := Laplace(rand.New(&seqSource{vals: []int64{first, next}}), 1)
		want := Laplace(rand.New(&seqSource{vals: []int64{next}}), 1)
		if math.IsInf(got, 0) || math.IsNaN(got) || got != want {
			t.Errorf("first Int63 %d: Laplace = %v, want %v", first, got, want)
		}
	}
	// 257 is the smallest draw that u = f − 1/2 resolves, so it is kept.
	got := Laplace(rand.New(&seqSource{vals: []int64{257}}), 1)
	if math.IsInf(got, 0) || got > -36 {
		t.Errorf("first Int63 257: Laplace = %v, want about −36.7", got)
	}
}

func TestLaplacePanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplace(0) did not panic")
		}
	}()
	Laplace(rand.New(rand.NewSource(1)), 0)
}

func TestGaussianMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	const sigma = 3.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Gaussian(rng, sigma)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Gaussian mean = %v", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("Gaussian variance = %v, want ~9", variance)
	}
}

func TestGaussianPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gaussian(-1) did not panic")
		}
	}()
	Gaussian(rand.New(rand.NewSource(1)), -1)
}

func TestVectorNoiseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gv := GaussianVector(rng, 5, 1)
	if gv.Dim() != 5 {
		t.Errorf("GaussianVector dim = %d", gv.Dim())
	}
	for _, x := range gv {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("noise vector %v not finite", gv)
		}
	}
}

// TestLaplaceQuantileInvertsTail: the (1−β)-quantile of |Lap(scale)| is
// scale·ln(1/β), so that share β of the draws exceeds it.
func TestLaplaceQuantileInvertsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100000
	for _, scale := range []float64{0.5, 1, 4} {
		for _, beta := range []float64{0.5, 0.1, 0.01} {
			x := scale * math.Log(1/beta)
			exceed := 0
			for i := 0; i < n; i++ {
				if math.Abs(Laplace(rng, scale)) > x {
					exceed++
				}
			}
			if got := float64(exceed) / n; math.Abs(got-beta) > 0.01 {
				t.Errorf("scale %v: share beyond the %v-quantile = %v, want %v", scale, 1-beta, got, beta)
			}
		}
	}
}

// TestGaussianTailKnownValues: P[N(0,1) > 0] = 0.5 and P[N(0,1) > 1.96]
// ≈ 0.025, measured on the sampler.
func TestGaussianTailKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 200000
	pos, far := 0, 0
	for i := 0; i < n; i++ {
		x := Gaussian(rng, 1)
		if x > 0 {
			pos++
		}
		if x > 1.959964 {
			far++
		}
	}
	if got := float64(pos) / n; math.Abs(got-0.5) > 0.005 {
		t.Errorf("P[N(0,1) > 0] = %v, want 0.5", got)
	}
	if got := float64(far) / n; math.Abs(got-0.025) > 0.002 {
		t.Errorf("P[N(0,1) > 1.96] = %v, want 0.025", got)
	}
}

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := Uniform(rng, 3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if Laplace(a, 1) != Laplace(b, 1) {
			t.Fatal("same seed produced different Laplace streams")
		}
	}
}
