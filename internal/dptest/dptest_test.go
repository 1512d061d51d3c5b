package dptest

import (
	"math"
	"math/rand"
	"testing"

	"privcluster/internal/dp"
	"privcluster/internal/noise"
	"privcluster/internal/stability"
	"privcluster/internal/svt"
	"privcluster/internal/vec"
)

// audit runs the harness and fails the test on violations.
func audit(t *testing.T, name string, m Mechanism, cfg Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	violations, events, err := Audit(rng, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if events < 2 {
		t.Fatalf("%s: audit degenerate — only %d distinct events", name, events)
	}
	for _, v := range violations {
		t.Errorf("%s: %s", name, v)
	}
}

func TestAuditValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Audit(rng, func(*rand.Rand, int) string { return "x" }, Config{Epsilon: 0}); err == nil {
		t.Error("epsilon=0 accepted")
	}
}

func TestBinFloat(t *testing.T) {
	if BinFloat(-5, 0, 1, 10) != "b000" {
		t.Error("below-range not clamped to first bin")
	}
	if BinFloat(5, 0, 1, 10) != "b009" {
		t.Error("above-range not clamped to last bin")
	}
	if BinFloat(0.55, 0, 1, 10) != "b005" {
		t.Errorf("mid bin = %s", BinFloat(0.55, 0, 1, 10))
	}
}

// TestAuditCatchesBrokenMechanism: a "mechanism" that leaks its world must
// be flagged — the audit's own soundness check.
func TestAuditCatchesBrokenMechanism(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	leaky := func(_ *rand.Rand, world int) string {
		if world == 0 {
			return "zero"
		}
		return "one"
	}
	violations, _, err := Audit(rng, leaky, Config{Epsilon: 1, Runs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("world-leaking mechanism passed the audit")
	}
}

// TestAuditCatchesUnderNoisedLaplace: noise scaled to ε instead of 1/ε is
// the classic DP bug; with counts differing by 1 and essentially no noise
// it must fail.
func TestAuditCatchesUnderNoisedLaplace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	broken := func(r *rand.Rand, world int) string {
		count := float64(100 + world)
		return BinFloat(count+noise.Laplace(r, 0.01), 90, 112, 44) // scale ≪ 1/ε
	}
	violations, _, err := Audit(rng, broken, Config{Epsilon: 1, Runs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("under-noised Laplace passed the audit")
	}
}

func TestLaplaceMechanismPassesAudit(t *testing.T) {
	eps := 1.0
	audit(t, "laplace", func(r *rand.Rand, world int) string {
		count := 100 + world // neighboring counts differ by 1
		return BinFloat(dp.NoisyCount(r, count, eps), 90, 112, 22)
	}, Config{Epsilon: eps})
}

// TestGaussianMechanismPassesAudit audits the Gaussian mechanism of
// Theorem 2.4: N(0, σ²) noise with σ = (Δ₂/ε)·sqrt(2·ln(1.25/δ)).
func TestGaussianMechanismPassesAudit(t *testing.T) {
	p := dp.Params{Epsilon: 1, Delta: 1e-3}
	sigma := 1 / p.Epsilon * math.Sqrt(2*math.Log(1.25/p.Delta)) // L2 sensitivity 1
	audit(t, "gaussian", func(r *rand.Rand, world int) string {
		out := float64(world) + noise.Gaussian(r, sigma)
		return BinFloat(out, -10, 11, 21)
	}, Config{Epsilon: p.Epsilon, Delta: p.Delta})
}

func TestExponentialMechanismPassesAudit(t *testing.T) {
	eps := 1.0
	audit(t, "expmech", func(r *rand.Rand, world int) string {
		// Neighboring score vectors (sensitivity 1 per candidate).
		scores := []float64{3, 5, 4}
		if world == 1 {
			scores = []float64{4, 4, 3}
		}
		idx, err := dp.ExponentialMechanism(r, scores, 1, eps)
		if err != nil {
			return "err"
		}
		return BinFloat(float64(idx), 0, 3, 3)
	}, Config{Epsilon: eps})
}

func TestReportNoisyMaxPassesAudit(t *testing.T) {
	eps := 1.0
	audit(t, "rnm", func(r *rand.Rand, world int) string {
		scores := []float64{10, 9, 8}
		if world == 1 {
			scores = []float64{9, 10, 9}
		}
		idx, err := dp.ReportNoisyMax(r, scores, 1, eps)
		if err != nil {
			return "err"
		}
		return BinFloat(float64(idx), 0, 3, 3)
	}, Config{Epsilon: eps})
}

func TestStabilityChoosePassesAudit(t *testing.T) {
	p := stability.Params{Epsilon: 1, Delta: 0.01}
	audit(t, "stability", func(r *rand.Rand, world int) string {
		// Neighboring histograms: one element moves between two heavy bins;
		// a third bin is occupied only in world 1 (the newly-supported-bin
		// case the δ threshold absorbs).
		hist := map[string]int{"a": 40, "b": 39}
		if world == 1 {
			hist = map[string]int{"a": 39, "b": 40, "c": 1}
		}
		res, err := stability.Choose(r, hist, p)
		if err != nil {
			return "err"
		}
		if res.Bottom {
			return "bottom"
		}
		return res.Key
	}, Config{Epsilon: p.Epsilon, Delta: p.Delta})
}

func TestAboveThresholdPassesAudit(t *testing.T) {
	eps := 1.0
	audit(t, "svt", func(r *rand.Rand, world int) string {
		at, err := svt.New(r, 10, eps)
		if err != nil {
			return "err"
		}
		// Three sensitivity-1 queries; the output event is the halting
		// pattern — the full view the adversary gets from AboveThreshold.
		queries := []float64{8, 9, 11}
		if world == 1 {
			queries = []float64{9, 10, 10}
		}
		out := ""
		for _, q := range queries {
			top, err := at.Query(q)
			if err != nil {
				break
			}
			if top {
				out += "T"
				break
			}
			out += "F"
		}
		return out
	}, Config{Epsilon: eps})
}

func TestNoisyAveragePassesAudit(t *testing.T) {
	p := dp.Params{Epsilon: 1, Delta: 1e-3}
	audit(t, "noisyavg", func(r *rand.Rand, world int) string {
		// Neighboring vector sets: one of 30 points moves within the ball.
		vs := make([]vec.Vector, 30)
		for i := range vs {
			vs[i] = vec.Of(0.5)
		}
		if world == 1 {
			vs[0] = vec.Of(0.9)
		}
		res, err := dp.NoisyAverage(r, vs, vec.Of(0.5), 0.5, p)
		if err != nil {
			return "err"
		}
		if res.Aborted {
			return "bottom"
		}
		return BinFloat(res.Average[0], 0, 1, 20)
	}, Config{Epsilon: p.Epsilon, Delta: p.Delta})
}
