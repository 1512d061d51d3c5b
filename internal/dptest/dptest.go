// Package dptest provides an empirical differential-privacy audit in the
// spirit of statistical DP testing (cf. DP-Sniper, StatDP): run a mechanism
// many times on a pair of neighboring datasets, bin the outputs, and check
// that no event's probability ratio exceeds e^ε beyond the δ and sampling
// slack. A failed audit proves a privacy bug; a passing audit is evidence
// (not proof) that the implementation matches its analysis.
//
// This package's own tests run the audit against the real mechanisms of
// the dp, noise, stability and svt packages: the Laplace and Gaussian
// mechanisms, the exponential mechanism, report-noisy-max, the stability
// histogram, AboveThreshold and NoisyAVG. It would have caught, for
// example, the classic bug of scaling noise to ε instead of sensitivity/ε,
// or a forgotten noise draw.
package dptest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mechanism is a randomized algorithm under audit: it maps a dataset index
// (0 = D, 1 = D′, the neighboring dataset) to a discrete outcome label.
// The mechanism must bin its own output: the audit's guarantees are over
// the events the binning induces (post-processing, so any binning is fair).
type Mechanism func(rng *rand.Rand, world int) string

// Config tunes the audit.
type Config struct {
	// Epsilon, Delta is the guarantee being audited.
	Epsilon, Delta float64
	// Runs per world (default 20000).
	Runs int
	// Slack is the additive probability slack allowed on top of
	// e^ε·p + δ to absorb sampling error (default 3·sqrt(p̂/Runs) + 2/Runs,
	// computed per event when zero).
	Slack float64
	// MinCount ignores events rarer than this count in both worlds
	// (default 10) — ratios of near-zero estimates are meaningless.
	MinCount int
}

func (c *Config) setDefaults() {
	if c.Runs == 0 {
		c.Runs = 20000
	}
	if c.MinCount == 0 {
		c.MinCount = 10
	}
}

// Violation describes an event whose empirical probabilities are
// inconsistent with the audited guarantee.
type Violation struct {
	Event        string
	P, Q         float64 // empirical probabilities in world 0 / world 1
	Bound, Slack float64
}

func (v Violation) String() string {
	return fmt.Sprintf("event %q: P=%v > e^ε·Q+δ+slack = %v (Q=%v, slack=%v)",
		v.Event, v.P, v.Bound+v.Slack, v.Q, v.Slack)
}

// Audit runs the mechanism Config.Runs times in each world and checks both
// directions of Definition 1.1 on every observed outcome event. It returns
// the list of violations (empty = audit passed) and the number of distinct
// events observed.
//
// Only tests call it. It stays exported for the planned end-to-end audits
// of GoodRadius and Dataset.FindCluster, which live outside this package.
func Audit(rng *rand.Rand, m Mechanism, cfg Config) ([]Violation, int, error) {
	cfg.setDefaults()
	if cfg.Epsilon <= 0 {
		return nil, 0, fmt.Errorf("dptest: epsilon must be positive")
	}
	counts := [2]map[string]int{make(map[string]int), make(map[string]int)}
	for world := 0; world < 2; world++ {
		for i := 0; i < cfg.Runs; i++ {
			counts[world][m(rng, world)]++
		}
	}
	events := make(map[string]struct{}, len(counts[0])+len(counts[1]))
	for e := range counts[0] {
		events[e] = struct{}{}
	}
	for e := range counts[1] {
		events[e] = struct{}{}
	}
	sorted := make([]string, 0, len(events))
	for e := range events {
		sorted = append(sorted, e)
	}
	sort.Strings(sorted)

	runs := float64(cfg.Runs)
	var violations []Violation
	check := func(event string, a, b int) {
		if a < cfg.MinCount {
			return
		}
		p := float64(a) / runs
		q := float64(b) / runs
		slack := cfg.Slack
		if slack == 0 {
			// Three-sigma binomial slack on each estimate plus a floor.
			slack = 3*math.Sqrt(p*(1-p)/runs) + 3*math.Sqrt(q*(1-q)/runs) + 2/runs
		}
		bound := math.Exp(cfg.Epsilon)*q + cfg.Delta
		if p > bound+slack {
			violations = append(violations, Violation{
				Event: event, P: p, Q: q, Bound: bound, Slack: slack,
			})
		}
	}
	for _, e := range sorted {
		check(e, counts[0][e], counts[1][e])
		check(e, counts[1][e], counts[0][e])
	}
	return violations, len(events), nil
}

// BinFloat coarsens a real-valued output into one of `bins` quantile-free
// buckets over [lo, hi] (outputs outside are clamped into the end buckets).
// A standard event family for auditing numeric mechanisms; it stays
// exported with Audit, for the audits outside this package.
func BinFloat(x, lo, hi float64, bins int) string {
	if bins < 1 {
		panic("dptest: BinFloat needs bins ≥ 1")
	}
	if math.IsNaN(x) {
		return "nan"
	}
	idx := int(float64(bins) * (x - lo) / (hi - lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= bins {
		idx = bins - 1
	}
	return fmt.Sprintf("b%03d", idx)
}
