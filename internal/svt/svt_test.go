package svt

import (
	"math"
	"math/rand"
	"testing"
)

// Halted reports whether the mechanism already answered ⊤.
func (a *AboveThreshold) Halted() bool { return a.halted }

// AccuracyBound returns the α of Theorem 4.8: with probability ≥ 1−β, every
// ⊤-answered query has true value ≥ threshold − α and every ⊥-answered query
// has true value ≤ threshold + α, where α = (8/ε)·log(2k/β) for k queries.
func AccuracyBound(epsilon float64, k int, beta float64) float64 {
	if k < 1 {
		k = 1
	}
	return (8 / epsilon) * math.Log(2*float64(k)/beta)
}

func TestClearAboveAndBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// With ε=1 and threshold 100, a query at 200 should fire and a query at
	// 0 should not, in essentially all trials.
	fired, misfired := 0, 0
	const trials = 300
	for i := 0; i < trials; i++ {
		at, err := New(rng, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := at.Query(0)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			misfired++
			continue
		}
		got, err = at.Query(200)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			fired++
		}
	}
	if misfired > 3 {
		t.Errorf("fired on value 0 in %d/%d trials", misfired, trials)
	}
	if fired < trials-misfired-3 {
		t.Errorf("missed value 200 in %d trials", trials-misfired-fired)
	}
}

func TestHaltsAfterTop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	at, err := New(rng, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := at.Query(1000)
	if err != nil || !got {
		t.Fatalf("query(1000) = %v, %v", got, err)
	}
	if !at.Halted() {
		t.Error("not halted after ⊤")
	}
	if _, err := at.Query(1000); err != ErrHalted {
		t.Errorf("post-halt query error = %v, want ErrHalted", err)
	}
}

func TestNewRejectsBadEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := New(rng, 0, 0); err == nil {
		t.Error("epsilon=0 accepted")
	}
	if _, err := New(rng, 0, -1); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestAccuracyBoundEmpirically(t *testing.T) {
	// Theorem 4.8: with prob ≥ 1−β all answers are α-accurate,
	// α = (8/ε)·log(2k/β). Run k queries alternating far-below/far-above
	// margins of exactly α and count violations.
	eps := 0.5
	k := 20
	beta := 0.05
	alpha := AccuracyBound(eps, k, beta)

	rng := rand.New(rand.NewSource(5))
	violations := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		at, err := New(rng, 0, eps)
		if err != nil {
			t.Fatal(err)
		}
		bad := false
		for q := 0; q < k && !at.Halted(); q++ {
			// All queries sit α below threshold; any ⊤ is a violation.
			got, err := at.Query(-alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got {
				bad = true
			}
		}
		if bad {
			violations++
		}
	}
	if frac := float64(violations) / trials; frac > beta {
		t.Errorf("accuracy violation rate %v exceeds beta %v", frac, beta)
	}
}

func TestTopFiresWithinBound(t *testing.T) {
	// A query α above threshold must fire with probability ≥ 1−β.
	eps := 0.5
	beta := 0.05
	alpha := AccuracyBound(eps, 1, beta)
	rng := rand.New(rand.NewSource(6))
	misses := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		at, _ := New(rng, 0, eps)
		got, err := at.Query(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			misses++
		}
	}
	if frac := float64(misses) / trials; frac > beta {
		t.Errorf("miss rate %v exceeds beta %v", frac, beta)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []bool {
		rng := rand.New(rand.NewSource(7))
		at, _ := New(rng, 50, 1)
		var out []bool
		for i := 0; i < 10 && !at.Halted(); i++ {
			got, _ := at.Query(float64(i * 12))
			out = append(out, got)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different answers")
		}
	}
}
