package stability

import (
	"math"
	"math/rand"
	"testing"
)

func params() Params { return Params{Epsilon: 1, Delta: 1e-6} }

// CountNeededForSuccess returns the bin count T that guarantees, with
// probability ≥ 1−β over the noise, that Choose releases a bin (it does not
// output ⊥) when n bounds the number of non-empty bins. This is the
// quantitative premise of Theorem 2.5: T ≥ (2/ε)·log(4n/(βδ)).
func CountNeededForSuccess(p Params, n int, beta float64) float64 {
	if n < 1 {
		n = 1
	}
	return (2 / p.Epsilon) * math.Log(4*float64(n)/(beta*p.Delta))
}

// LossBound returns the count gap guaranteed by Theorem 2.5: with
// probability ≥ 1−β the selected bin's true count is at least
// T − (4/ε)·log(2n/β) where T is the max bin count.
func LossBound(p Params, n int, beta float64) float64 {
	if n < 1 {
		n = 1
	}
	return (4 / p.Epsilon) * math.Log(2*float64(n)/beta)
}

func TestChooseFindsDominantBin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hist := map[string]int{"a": 3, "b": 500, "c": 7}
	wins := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		res, err := Choose(rng, hist, params())
		if err != nil {
			t.Fatal(err)
		}
		if res.Bottom {
			t.Fatal("bottom with a count-500 bin present")
		}
		if res.Key == "b" {
			wins++
		}
	}
	if wins < trials-2 {
		t.Errorf("dominant bin won only %d/%d", wins, trials)
	}
}

func TestChooseBottomOnEmptyAndSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	res, err := Choose(rng, map[int]int{}, params())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bottom {
		t.Error("non-bottom result on empty histogram")
	}

	// All-tiny bins: should essentially always be bottom
	// (threshold ≈ 2 + 2·ln(2e6) ≈ 31).
	bottoms := 0
	for i := 0; i < 100; i++ {
		res, err := Choose(rng, map[int]int{1: 1, 2: 1, 3: 2}, params())
		if err != nil {
			t.Fatal(err)
		}
		if res.Bottom {
			bottoms++
		}
	}
	if bottoms < 95 {
		t.Errorf("sparse histogram released a bin in %d/100 trials", 100-bottoms)
	}
}

func TestChooseIgnoresNonPositiveCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hist := map[string]int{"neg": -5, "zero": 0, "big": 1000}
	for i := 0; i < 50; i++ {
		res, err := Choose(rng, hist, params())
		if err != nil {
			t.Fatal(err)
		}
		if res.Bottom || res.Key != "big" {
			t.Fatalf("result = %+v, want big", res)
		}
	}
}

func TestChooseParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := Choose(rng, map[int]int{1: 1}, Params{0, 0.1}); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, err := Choose(rng, map[int]int{1: 1}, Params{1, 0}); err == nil {
		t.Error("delta=0 accepted")
	}
	if _, err := Choose(rng, map[int]int{1: 1}, Params{1, 1}); err == nil {
		t.Error("delta=1 accepted")
	}
}

func TestThresholdFormula(t *testing.T) {
	p := Params{Epsilon: 2, Delta: 1e-4}
	want := 2 + (2.0/2.0)*math.Log(2/1e-4)
	if got := p.Threshold(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Threshold = %v, want %v", got, want)
	}
}

func TestUtilityGuaranteeEmpirically(t *testing.T) {
	// Theorem 2.5 shape: when the max count clears CountNeededForSuccess,
	// Choose must (a) not output ⊥ and (b) return a bin within LossBound of
	// the max, with probability ≥ 1−β. Check empirically at β = 0.05.
	p := params()
	beta := 0.05
	nBins := 50
	need := int(CountNeededForSuccess(p, nBins, beta)) + 1
	loss := LossBound(p, nBins, beta)

	rng := rand.New(rand.NewSource(5))
	failures := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		hist := make(map[int]int, nBins)
		for b := 0; b < nBins-1; b++ {
			hist[b] = rng.Intn(need / 2)
		}
		hist[nBins-1] = need // the heavy bin
		res, err := Choose(rng, hist, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bottom || float64(hist[res.Key]) < float64(need)-loss {
			failures++
		}
	}
	if frac := float64(failures) / trials; frac > beta {
		t.Errorf("utility failure rate %v exceeds beta %v", frac, beta)
	}
}

func TestHistogramHelper(t *testing.T) {
	data := []int{1, 2, 3, 4, 5, 6}
	h := Histogram(data, func(x int) string {
		if x%2 == 0 {
			return "even"
		}
		return "odd"
	})
	if h["even"] != 3 || h["odd"] != 3 {
		t.Errorf("Histogram = %v", h)
	}
	if len(Histogram([]int{}, func(x int) int { return x })) != 0 {
		t.Error("histogram of empty data not empty")
	}
}

func TestChooseDeterministicWithSeed(t *testing.T) {
	hist := map[int]int{1: 100, 2: 101}
	a, _ := Choose(rand.New(rand.NewSource(9)), hist, params())
	b, _ := Choose(rand.New(rand.NewSource(9)), hist, params())
	if a.Key != b.Key || a.Bottom != b.Bottom {
		t.Error("same seed produced different choices")
	}
}

func TestChooseIndexedMatchesChoose(t *testing.T) {
	// ChooseIndexed over counts laid out in sorted-key order must consume
	// the noise stream exactly like Choose over the equivalent map.
	hist := map[int]int{0: 100, 1: 7, 2: 180, 3: 0, 4: -2}
	counts := []int{100, 7, 180, 0, -2}
	a, errA := Choose(rand.New(rand.NewSource(10)), hist, params())
	b, errB := ChooseIndexed(rand.New(rand.NewSource(10)), counts, params())
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.Bottom != b.Bottom || a.Key != b.Key || a.NoisyCount != b.NoisyCount {
		t.Errorf("ChooseIndexed %+v diverged from Choose %+v", b, a)
	}
}

func TestChooseIndexedBottom(t *testing.T) {
	res, err := ChooseIndexed(rand.New(rand.NewSource(11)), []int{0, -3, 0}, params())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bottom {
		t.Error("all-non-positive counts did not return bottom")
	}
	if _, err := ChooseIndexed(rand.New(rand.NewSource(12)), []int{1}, Params{Epsilon: -1, Delta: 0.1}); err == nil {
		t.Error("invalid params accepted")
	}
}
