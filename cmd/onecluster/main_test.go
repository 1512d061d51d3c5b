package main

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"privcluster"
)

func TestFormatPoint(t *testing.T) {
	got := formatPoint([]float64{0.5, 0.25})
	if got != "(0.5, 0.25)" {
		t.Errorf("formatPoint = %q", got)
	}
}

func TestParseQueries(t *testing.T) {
	ts, err := parseQueries("300, 400,500")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || ts[0] != 300 || ts[1] != 400 || ts[2] != 500 {
		t.Errorf("parseQueries = %v", ts)
	}
	for _, bad := range []string{"", "abc", "300,", "0", "-5", "300,-1"} {
		if _, err := parseQueries(bad); err == nil {
			t.Errorf("parseQueries(%q) accepted", bad)
		}
	}
}

func TestParseBudget(t *testing.T) {
	b, err := parseBudget("2.5,1e-5")
	if err != nil {
		t.Fatal(err)
	}
	if b.Epsilon != 2.5 || b.Delta != 1e-5 {
		t.Errorf("parseBudget = %+v", b)
	}
	if b, err := parseBudget(""); err != nil || !b.IsZero() {
		t.Errorf("empty budget = %+v, %v", b, err)
	}
	for _, bad := range []string{"2.5", "2.5,1e-5,3", "x,1e-5", "1,y"} {
		if _, err := parseBudget(bad); err == nil {
			t.Errorf("parseBudget(%q) accepted", bad)
		}
	}
}

// TestRunQueriesEndToEnd drives the handle path the new flags expose:
// several t values against one dataset under one budget, ending in a
// budget refusal when the cap is too small for all of them.
func TestRunQueriesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]privcluster.Point, 0, 800)
	for i := 0; i < 500; i++ {
		pts = append(pts, privcluster.Point{0.4 + 0.02*rng.Float64(), 0.6 + 0.02*rng.Float64()})
	}
	for i := 0; i < 300; i++ {
		pts = append(pts, privcluster.Point{rng.Float64(), rng.Float64()})
	}
	// Two queries fit the ε budget of 8; the third is refused.
	err := runQueries(io.Discard, pts, "400,450,300", "8,0.2", 4, 0.05, 0.1, 1024, 7, false, nil, false)
	if !errors.Is(err, privcluster.ErrBudgetExhausted) {
		t.Fatalf("three ε=4 queries against ε-budget 8: err = %v, want ErrBudgetExhausted", err)
	}
	// Unlimited budget runs all three.
	if err := runQueries(io.Discard, pts, "400,450,300", "", 4, 0.05, 0.1, 1024, 7, false, nil, false); err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
	// The batch executor path: same queries concurrently, refusals
	// reported per query instead of aborting the run.
	if err := runQueries(io.Discard, pts, "400,450,300", "8,0.2", 4, 0.05, 0.1, 1024, 7, true, nil, false); err != nil {
		t.Fatalf("parallel with budget: %v", err)
	}
	if err := runQueries(io.Discard, pts, "400,450,300", "", 4, 0.05, 0.1, 1024, 7, true, nil, false); err != nil {
		t.Fatalf("parallel unlimited: %v", err)
	}
}
