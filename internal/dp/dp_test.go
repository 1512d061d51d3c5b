package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privcluster/internal/noise"
	"privcluster/internal/vec"
)

func TestParamsValidate(t *testing.T) {
	good := []Params{{1, 0}, {0.1, 1e-9}, {10, 0.5}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", p, err)
		}
	}
	bad := []Params{{0, 0}, {-1, 0}, {1, -0.1}, {1, 1}, {math.NaN(), 0}, {math.Inf(1), 0}, {1, math.NaN()}}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

func TestSplitAndComposeRoundTrip(t *testing.T) {
	p := Params{Epsilon: 1, Delta: 1e-6}
	parts := make([]Params, 4)
	for i := range parts {
		parts[i] = p.Split(4)
	}
	total := spendAll(parts...)
	if math.Abs(total.Epsilon-1) > 1e-12 || math.Abs(total.Delta-1e-6) > 1e-18 {
		t.Errorf("Split/Compose round trip = %v", total)
	}
}

func TestSplitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split(0) did not panic")
		}
	}()
	Params{1, 0}.Split(0)
}

func TestComposeAdvancedFormula(t *testing.T) {
	p := Params{Epsilon: 0.1, Delta: 1e-8}
	k := 100
	dp := 1e-6
	got := ComposeAdvanced(p, k, dp)
	wantEps := 2*float64(k)*0.01 + 0.1*math.Sqrt(2*float64(k)*math.Log(1/dp))
	if math.Abs(got.Epsilon-wantEps) > 1e-9 {
		t.Errorf("ComposeAdvanced eps = %v, want %v", got.Epsilon, wantEps)
	}
	if math.Abs(got.Delta-(float64(k)*1e-8+1e-6)) > 1e-15 {
		t.Errorf("ComposeAdvanced delta = %v", got.Delta)
	}
}

func TestComposeAdvancedBeatsBasicForManyRounds(t *testing.T) {
	p := Params{Epsilon: 0.01, Delta: 0}
	k := 10000
	adv := ComposeAdvanced(p, k, 1e-9)
	basic := p.Epsilon * float64(k)
	if adv.Epsilon >= basic {
		t.Errorf("advanced composition (%v) not better than basic (%v) at k=%d", adv.Epsilon, basic, k)
	}
}

func TestAccountant(t *testing.T) {
	a, err := NewAccountant(Params{Epsilon: 1, Delta: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Params{0.5, 0}); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Params{0.5, 1e-6}); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend(Params{0.01, 0}); err == nil {
		t.Error("over-budget spend succeeded")
	}
	rem := a.Remaining()
	if rem.Epsilon > 1e-9 || rem.Delta > 1e-15 {
		t.Errorf("Remaining = %v, want ~zero", rem)
	}
}

func TestNewAccountantRejectsBadLimit(t *testing.T) {
	if _, err := NewAccountant(Params{0, 0}); err == nil {
		t.Error("NewAccountant accepted invalid limit")
	}
}

func TestLaplaceMechanismUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += LaplaceMechanism(rng, 10, 1, 0.5)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Errorf("LaplaceMechanism mean = %v, want ~10", mean)
	}
}

func TestNoisyCountConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	big := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if math.Abs(NoisyCount(rng, 100, 1)-100) > 10 {
			big++
		}
	}
	// P[|Lap(1)| > 10] = e^{-10} ≈ 4.5e-5; allow generous slack.
	if float64(big)/n > 0.01 {
		t.Errorf("noisy count deviated >10 in %d/%d trials", big, n)
	}
}

// GaussianMechanism releases value + N(0, σ²)^d with σ from Theorem 2.4,
// σ = (l2Sensitivity/ε)·sqrt(2·ln(1.25/δ)), which is (ε, δ)-DP for an
// L2-sensitivity-l2Sensitivity query.
func GaussianMechanism(rng *rand.Rand, value vec.Vector, l2Sensitivity float64, p Params) vec.Vector {
	if p.Delta <= 0 {
		panic("dp: GaussianMechanism requires delta > 0")
	}
	sigma := l2Sensitivity / p.Epsilon * math.Sqrt(2*math.Log(1.25/p.Delta))
	return value.Add(noise.GaussianVector(rng, value.Dim(), sigma))
}

func TestGaussianMechanismShapeAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	val := vec.Of(1, 2, 3)
	const n = 20000
	sum := vec.New(3)
	for i := 0; i < n; i++ {
		out := GaussianMechanism(rng, val, 1, Params{1, 1e-6})
		if out.Dim() != 3 {
			t.Fatalf("dim = %d", out.Dim())
		}
		sum.AddInPlace(out)
	}
	mean := sum.Scale(1.0 / n)
	for j := range val {
		if math.Abs(mean[j]-val[j]) > 0.2 {
			t.Errorf("Gaussian mechanism mean = %v, want ≈%v", mean, val)
		}
	}
}

func TestGaussianMechanismPanicsWithoutDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GaussianMechanism with delta=0 did not panic")
		}
	}()
	GaussianMechanism(rand.New(rand.NewSource(1)), vec.Of(1), 1, Params{1, 0})
}

func TestExponentialMechanismPrefersHighScores(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	scores := []float64{0, 0, 50, 0}
	wins := 0
	const n = 2000
	for i := 0; i < n; i++ {
		idx, err := ExponentialMechanism(rng, scores, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 2 {
			wins++
		}
	}
	if float64(wins)/n < 0.99 {
		t.Errorf("high-score candidate won only %d/%d", wins, n)
	}
}

func TestExponentialMechanismUniformOnTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := []float64{7, 7}
	count0 := 0
	const n = 20000
	for i := 0; i < n; i++ {
		idx, _ := ExponentialMechanism(rng, scores, 1, 1)
		if idx == 0 {
			count0++
		}
	}
	if frac := float64(count0) / n; math.Abs(frac-0.5) > 0.02 {
		t.Errorf("tie split = %v, want ~0.5", frac)
	}
}

func TestExponentialMechanismErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := ExponentialMechanism(rng, nil, 1, 1); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := ExponentialMechanism(rng, []float64{1}, 0, 1); err == nil {
		t.Error("zero sensitivity accepted")
	}
	if _, err := ExponentialMechanism(rng, []float64{math.NaN()}, 1, 1); err == nil {
		t.Error("NaN score accepted")
	}
	if _, err := ExponentialMechanism(rng, []float64{math.Inf(-1)}, 1, 1); err == nil {
		t.Error("all-excluded candidates accepted")
	}
}

func TestExponentialMechanismExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scores := []float64{math.Inf(-1), 1, math.Inf(-1)}
	for i := 0; i < 100; i++ {
		idx, err := ExponentialMechanism(rng, scores, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("excluded candidate %d selected", idx)
		}
	}
}

func TestExponentialMechanismLargeScoresNoOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scores := []float64{1e308, 1e308 - 1}
	idx, err := ExponentialMechanism(rng, scores, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 && idx != 1 {
		t.Fatalf("idx = %d", idx)
	}
}

func TestReportNoisyMax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := []float64{0, 100, 0}
	for i := 0; i < 100; i++ {
		idx, err := ReportNoisyMax(rng, scores, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("noisy max missed a 100-vs-0 gap, idx=%d", idx)
		}
	}
	if _, err := ReportNoisyMax(rng, nil, 1, 1); err == nil {
		t.Error("empty candidates accepted")
	}
	if _, err := ReportNoisyMax(rng, []float64{1}, 1, 0); err == nil {
		t.Error("zero epsilon accepted")
	}
}

// Property: basic composition, as the Accountant applies it, is
// commutative and monotone.
func TestComposePropertyBased(t *testing.T) {
	f := func(e1, e2, d1, d2 float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Abs(math.Remainder(x, 100))
		}
		p1 := Params{clamp(e1), clamp(d1) / (1 + clamp(d1)) / 2}
		p2 := Params{clamp(e2), clamp(d2) / (1 + clamp(d2)) / 2}
		a, b := spendAll(p1, p2), spendAll(p2, p1)
		return math.Abs(a.Epsilon-b.Epsilon) < 1e-12 &&
			math.Abs(a.Delta-b.Delta) < 1e-12 &&
			a.Epsilon >= p1.Epsilon && a.Delta >= p1.Delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// spendAll returns what an Accountant with the widest valid budget has
// spent after ps.
func spendAll(ps ...Params) Params {
	acc, err := NewAccountant(Params{Epsilon: math.MaxFloat64, Delta: math.Nextafter(1, 0)})
	if err != nil {
		panic(err)
	}
	for _, p := range ps {
		if err := acc.Spend(p); err != nil {
			panic(err)
		}
	}
	return acc.Spent()
}

func TestNoisyAverageRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	center := vec.Of(5, 5)
	var vs []vec.Vector
	for i := 0; i < 5000; i++ {
		vs = append(vs, vec.Of(5+rng.Float64()*0.1-0.05, 5+rng.Float64()*0.1-0.05))
	}
	res, err := NoisyAverage(rng, vs, center, 0.2, Params{1, 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted with 5000 points in range")
	}
	if res.Average.Dist(center) > 0.5 {
		t.Errorf("noisy average %v too far from %v (sigma=%v)", res.Average, center, res.Sigma)
	}
	if res.Count != 5000 {
		t.Errorf("count = %d", res.Count)
	}
}

func TestNoisyAverageAbortsOnEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	res, err := NoisyAverage(rng, nil, vec.Of(0, 0), 1, Params{1, 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Error("NoisyAverage on empty input did not abort")
	}
}

func TestNoisyAverageExcludesOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var vs []vec.Vector
	for i := 0; i < 2000; i++ {
		vs = append(vs, vec.Of(1, 1))
	}
	// A distant outlier must not shift the result (it is screened by g).
	vs = append(vs, vec.Of(1e9, 1e9))
	res, err := NoisyAverage(rng, vs, vec.Of(1, 1), 0.5, Params{1, 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	if res.Count != 2000 {
		t.Errorf("count = %d, want 2000 (outlier excluded)", res.Count)
	}
	if res.Average.Dist(vec.Of(1, 1)) > 0.3 {
		t.Errorf("average %v shifted by outlier", res.Average)
	}
}

func TestNoisyAverageParameterErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	if _, err := NoisyAverage(rng, nil, vec.Of(0), 1, Params{0, 0.1}); err == nil {
		t.Error("invalid epsilon accepted")
	}
	if _, err := NoisyAverage(rng, nil, vec.Of(0), 1, Params{1, 0}); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := NoisyAverage(rng, nil, vec.Of(0), -1, Params{1, 0.1}); err == nil {
		t.Error("negative diameter accepted")
	}
	if _, err := NoisyAverage(rng, []vec.Vector{vec.Of(1, 2)}, vec.Of(0), 1, Params{1, 0.1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestNoisyAverageZeroDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var vs []vec.Vector
	for i := 0; i < 1000; i++ {
		vs = append(vs, vec.Of(3, 4))
	}
	res, err := NoisyAverage(rng, vs, vec.Of(3, 4), 0, Params{1, 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Fatal("aborted")
	}
	if !res.Average.Equal(vec.Of(3, 4)) {
		t.Errorf("zero-diameter average = %v, want exactly (3,4)", res.Average)
	}
}

// TestNoisyAverageRowsMatchesNoisyAverage pins the frame entry point
// against the vector one: over ids that are in the ball, out of it and
// repeated, NoisyAverageRows on a frame and NoisyAverage on the gathered
// rows must consume the same noise and release bit-identical results,
// aborts included.
func TestNoisyAverageRowsMatchesNoisyAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, d = 400, 3
	center := vec.Of(0.5, 0.5, 0.5)
	f := vec.NewFrame(n, d)
	for i := 0; i < n; i++ {
		row := f.Row(i)
		for j := range row {
			if i%3 == 0 {
				row[j] = rng.Float64() // mostly outside a small ball
			} else {
				row[j] = center[j] + 0.1*(rng.Float64()-0.5)
			}
		}
	}
	f.SetRow(1, center) // a row at distance exactly 0
	aborts := 0
	for _, tc := range []struct {
		radius float64
		ids    int // number of ids drawn (with repeats)
		seed   int64
	}{
		{0.1, 600, 1}, {0.3, 250, 2}, {0.05, 40, 3}, {0, 30, 4}, {0.1, 3, 5},
	} {
		ids := make([]int, tc.ids)
		for k := range ids {
			ids[k] = rng.Intn(n)
		}
		ids = append(ids, ids[0], 1, 1) // explicit repeats
		gathered := make([]vec.Vector, len(ids))
		for k, id := range ids {
			gathered[k] = f.Row(id)
		}
		want, err := NoisyAverage(rand.New(rand.NewSource(tc.seed)), gathered, center, tc.radius, Params{1, 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		got, err := NoisyAverageRows(rand.New(rand.NewSource(tc.seed)), f, ids, center, tc.radius, Params{1, 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if got.Aborted != want.Aborted || got.Count != want.Count ||
			math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) || len(got.Average) != len(want.Average) {
			t.Fatalf("radius %v: rows %+v, vectors %+v", tc.radius, got, want)
		}
		for j := range got.Average {
			if math.Float64bits(got.Average[j]) != math.Float64bits(want.Average[j]) {
				t.Fatalf("radius %v: average %v, want %v", tc.radius, got.Average, want.Average)
			}
		}
		if got.Aborted {
			aborts++
		}
	}
	if aborts == 0 || aborts == 5 {
		t.Fatalf("%d of 5 cases aborted; want both outcomes covered", aborts)
	}
}
