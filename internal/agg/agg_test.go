package agg

import (
	"math/rand"
	"testing"

	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
)

func clusterParams(t *testing.T, dim int) core.Params {
	t.Helper()
	g, err := geometry.NewGrid(4096, dim)
	if err != nil {
		t.Fatal(err)
	}
	return core.Params{
		Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
		Beta:    0.1,
		Grid:    g,
	}
}

// meanAnalysis is a stable f: the mean of 1-D rows, lifted to d dims.
func meanAnalysis(dim int) Analysis[float64] {
	return func(rows []float64) vec.Vector {
		var s float64
		for _, r := range rows {
			s += r
		}
		m := s / float64(len(rows))
		out := make(vec.Vector, dim)
		for i := range out {
			out[i] = m
		}
		return out
	}
}

func TestRunRecoversStablePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Rows concentrated near 0.5: the mean of any size-m subsample is within
	// ~0.01 of 0.5, i.e. f is (m, 0.01, ≈1)-stable at c = (0.5, 0.5).
	rows := make([]float64, 40000)
	for i := range rows {
		rows[i] = 0.5 + rng.NormFloat64()*0.02
	}
	prm := Params{M: 5, Alpha: 0.8, Cluster: clusterParams(t, 2)}

	res, err := Run(rng, rows, meanAnalysis(2), prm)
	if err != nil {
		t.Fatal(err)
	}
	want := vec.Of(0.5, 0.5)
	if res.Point.Dist(want) > res.Radius {
		t.Errorf("released point %v not within its own radius %v of %v", res.Point, res.Radius, want)
	}
	if res.Point.Dist(want) > 0.25 {
		t.Errorf("released point %v too far from the stable point", res.Point)
	}
	if res.K != 40000/(9*5) {
		t.Errorf("K = %d", res.K)
	}
	if res.T != int(0.8*float64(res.K)/2) {
		t.Errorf("T = %d", res.T)
	}
	// The aggregator ball must capture ≥ T evaluations.
	ball := geometry.Ball{Center: res.Point, Radius: res.Radius}
	if got := res.Evaluations.CountWithin(ball.Center, ball.Radius); got < res.T {
		t.Errorf("aggregator ball holds %d < %d evaluations", got, res.T)
	}
}

func TestRunRobustToUnstableMinority(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// 70% of rows near 0.3, 30% adversarial spread: per-block means still
	// concentrate near 0.3 when m is small... use m=1 so each evaluation is
	// a single row: f is (1, 0.05, 0.7)-stable at 0.3.
	rows := make([]float64, 30000)
	for i := range rows {
		if i < 21000 {
			rows[i] = 0.3 + rng.NormFloat64()*0.01
		} else {
			rows[i] = rng.Float64()
		}
	}
	prm := Params{M: 1, Alpha: 0.6, Cluster: clusterParams(t, 2)}
	res, err := Run(rng, rows, meanAnalysis(2), prm)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Point.Dist(vec.Of(0.3, 0.3)); d > 0.25 {
		t.Errorf("released point %v too far (%v) from the 70%% mode", res.Point, d)
	}
}

func TestRunValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]float64, 100)
	cl := clusterParams(t, 1)
	if _, err := Run(rng, rows, meanAnalysis(1), Params{M: 0, Alpha: 0.5, Cluster: cl}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Run(rng, rows, meanAnalysis(1), Params{M: 5, Alpha: 0, Cluster: cl}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Run(rng, rows, meanAnalysis(1), Params{M: 50, Alpha: 0.5, Cluster: cl}); err == nil {
		t.Error("n < 18m accepted")
	}
	// Dimension mismatch between f and grid.
	big := make([]float64, 40000)
	if _, err := Run(rng, big, meanAnalysis(3), Params{M: 5, Alpha: 0.8, Cluster: clusterParams(t, 2)}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}
