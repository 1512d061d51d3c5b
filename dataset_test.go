package privcluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDatasetMatchesFreeFunctions pins the tentpole equivalence guarantee:
// under a fixed seed, a query on a prepared handle releases exactly what
// the legacy free function releases — including on a warm handle whose
// cached index is being reused, and under a non-unit domain.
func TestDatasetMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}

	ref, err := FindCluster(pts, 400, o)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Open(pts, o.datasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	for pass, label := range []string{"cold", "warm (cached index)"} {
		got, err := ds.FindCluster(context.Background(), 400, o.queryOptions())
		if err != nil {
			t.Fatalf("%s query: %v", label, err)
		}
		if got.Radius != ref.Radius || got.RawRadius != ref.RawRadius ||
			got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
			t.Errorf("%s handle query differs from the free function: %+v vs %+v (pass %d)", label, got, ref, pass)
		}
	}
	if builds := ds.builds.Load(); builds != 1 {
		t.Errorf("two warm queries built the index %d times, want 1", builds)
	}

	// FindClusters through the same handle and seed.
	ko := Options{Epsilon: 12, Delta: 0.06, Seed: 5, GridSize: 1024}
	refK, err := FindClusters(pts, 2, 300, ko)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := ds.FindClusters(context.Background(), 2, 300, ko.queryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(refK) != len(gotK) {
		t.Fatalf("FindClusters: %d vs %d clusters", len(gotK), len(refK))
	}
	for i := range refK {
		if refK[i].Radius != gotK[i].Radius || refK[i].Center[0] != gotK[i].Center[0] {
			t.Errorf("cluster %d differs: %+v vs %+v", i, gotK[i], refK[i])
		}
	}

	// InteriorPoint on a 1-D handle.
	vals := make([]float64, 2400)
	vrng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = 0.4 + 0.2*vrng.Float64()
	}
	io := Options{Epsilon: 4, Delta: 0.05, Seed: 11}
	refIP, err := InteriorPoint(vals, 1600, io)
	if err != nil {
		t.Fatal(err)
	}
	vpts := make([]Point, len(vals))
	for i, v := range vals {
		vpts[i] = Point{v}
	}
	ds1, err := Open(vpts, io.datasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotIP, err := ds1.InteriorPoint(context.Background(), 1600, io.queryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gotIP != refIP {
		t.Errorf("InteriorPoint differs: %x vs %x", gotIP, refIP)
	}
}

// TestDatasetDomainMapping: a handle over a non-unit domain releases in
// original units, identically to the free function.
func TestDatasetDomainMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	unit, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	pts := make([]Point, len(unit))
	for i, p := range unit {
		pts[i] = Point{-10 + 20*p[0], -10 + 20*p[1]}
	}
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024, Min: -10, Max: 10}
	ref, err := FindCluster(pts, 400, o)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Open(pts, o.datasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.FindCluster(context.Background(), 400, o.queryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Radius != ref.Radius || got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
		t.Errorf("domain-mapped handle query differs: %+v vs %+v", got, ref)
	}
	if got.Center[0] < -10 || got.Center[0] > 10 {
		t.Errorf("center %v not in original units", got.Center)
	}
}

// TestDatasetBudgetAccounting: queries deduct their cost, Remaining tracks
// it, and the query that no longer fits is refused with the typed
// ErrBudgetExhausted carrying spent/remaining amounts — without running
// any mechanism.
func TestDatasetBudgetAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	do := Options{GridSize: 1024}.datasetOptions()
	do.Budget = Budget{Epsilon: 8, Delta: 0.1}
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	q := QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 7}

	if rem, ok := ds.Remaining(); !ok || rem != (Budget{Epsilon: 8, Delta: 0.1}) {
		t.Fatalf("fresh handle Remaining = %v, %v", rem, ok)
	}
	for i := 0; i < 2; i++ {
		if _, err := ds.FindCluster(context.Background(), 400, q); err != nil {
			t.Fatalf("query %d within budget failed: %v", i, err)
		}
	}
	if rem, _ := ds.Remaining(); rem.Epsilon > 1e-9 || rem.Delta > 1e-9 {
		t.Errorf("after exhausting queries Remaining = %v, want ≈ zero", rem)
	}

	_, err = ds.FindCluster(context.Background(), 400, q)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget query: err = %v, want ErrBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-budget error is not a *BudgetError: %v", err)
	}
	if be.Total != do.Budget || be.Spent != (Budget{Epsilon: 8, Delta: 0.1}) || be.Requested != (Budget{Epsilon: 4, Delta: 0.05}) {
		t.Errorf("BudgetError fields: total=%v spent=%v requested=%v", be.Total, be.Spent, be.Requested)
	}
	if got := ds.Spent(); got != (Budget{Epsilon: 8, Delta: 0.1}) {
		t.Errorf("refused query changed Spent to %v", got)
	}

	// A budget-less handle tracks spending but never refuses.
	free, err := Open(pts, Options{GridSize: 1024}.datasetOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := free.Remaining(); ok {
		t.Error("budget-less handle claims to enforce a budget")
	}
	if _, err := free.FindCluster(context.Background(), 400, q); err != nil {
		t.Fatal(err)
	}
	if got := free.Spent(); got != (Budget{Epsilon: 4, Delta: 0.05}) {
		t.Errorf("budget-less handle Spent = %v", got)
	}
}

// TestDatasetInteriorPointCost: an InteriorPoint query costs (2ε, 2δ) —
// the Theorem 5.3 composition of its two stages.
func TestDatasetInteriorPointCost(t *testing.T) {
	vals := make([]Point, 3000)
	rng := rand.New(rand.NewSource(4))
	for i := range vals {
		if i < 2400 {
			vals[i] = Point{0.5} // duplicate-dominated: radius-zero path at any t
		} else {
			vals[i] = Point{rng.Float64()}
		}
	}
	do := DatasetOptions{Budget: Budget{Epsilon: 2, Delta: 2e-6}}
	ds, err := Open(vals, do)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.InteriorPoint(context.Background(), 2000, QueryOptions{Seed: 1}); err != nil {
		t.Fatalf("InteriorPoint within budget: %v", err)
	}
	if got := ds.Spent(); got != (Budget{Epsilon: 2, Delta: 2e-6}) {
		t.Errorf("InteriorPoint cost %v, want the (2ε, 2δ) composition", got)
	}
	if _, err := ds.InteriorPoint(context.Background(), 2000, QueryOptions{Seed: 2}); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("second InteriorPoint past the budget: err = %v, want ErrBudgetExhausted", err)
	}

	// Degenerate innerN values are parameter errors: rejected before any
	// budget is consulted, never charged.
	fresh, err := Open(vals, do)
	if err != nil {
		t.Fatal(err)
	}
	for _, badInner := range []int{0, 1, len(vals)} {
		if _, err := fresh.InteriorPoint(context.Background(), badInner, QueryOptions{Seed: 1}); err == nil {
			t.Errorf("innerN=%d accepted", badInner)
		}
	}
	if got := fresh.Spent(); !got.IsZero() {
		t.Errorf("invalid innerN queries consumed %v of budget", got)
	}
}

// TestDatasetConcurrentQueries is the race-detector test of the tentpole's
// concurrency contract: N goroutines hammer one handle; the budget is never
// over-spent (exactly the affordable number of queries get through) and the
// index is built exactly once.
func TestDatasetConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := plantedPoints(rng, 6000, 4000, 2, 0.02) // > ExactIndexMaxN: scalable backend
	const (
		goroutines = 8
		affordable = 3
	)
	do := Options{}.datasetOptions()
	do.Budget = Budget{Epsilon: 2 * affordable, Delta: 1e-5 * affordable}
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		refused int
		ran     int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := ds.FindCluster(context.Background(), 3000, QueryOptions{Epsilon: 2, Delta: 1e-5, Seed: seed})
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, ErrBudgetExhausted) {
				refused++
			} else {
				// Whether or not the mechanism succeeded downstream, the
				// charge went through — what the accounting must bound.
				ran++
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if ran != affordable || refused != goroutines-affordable {
		t.Errorf("ran %d queries (want %d), refused %d (want %d)", ran, affordable, refused, goroutines-affordable)
	}
	if got := ds.Spent(); math.Abs(got.Epsilon-2*affordable) > 1e-9 || math.Abs(got.Delta-1e-5*affordable) > 1e-12 {
		t.Errorf("concurrent spend = %v, want the full budget (ε=%d, δ=%g)", got, 2*affordable, 1e-5*affordable)
	}
	if builds := ds.builds.Load(); builds != 1 {
		t.Errorf("index built %d times under concurrency, want exactly 1", builds)
	}
}

// TestDatasetPreCancelledContext: a context that is already cancelled when
// the query arrives returns promptly and consumes no budget.
func TestDatasetPreCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	do := Options{GridSize: 1024}.datasetOptions()
	do.Budget = Budget{Epsilon: 4, Delta: 0.05}
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := ds.FindCluster(ctx, 400, QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 7}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-cancelled query took %v, want prompt return", elapsed)
	}
	if got := ds.Spent(); !got.IsZero() {
		t.Errorf("pre-cancelled query consumed %v of budget", got)
	}
	if _, err := ds.FindClusters(ctx, 2, 400, QueryOptions{Epsilon: 4, Delta: 0.05}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled FindClusters: err = %v", err)
	}
	if got := ds.Spent(); !got.IsZero() {
		t.Errorf("pre-cancelled queries consumed %v of budget", got)
	}
}

// TestDatasetCancelInFlight: cancelling a context mid-query aborts an
// n = 100k query promptly — no panic, no stuck worker pools — instead of
// running the multi-second pipeline to completion.
func TestDatasetCancelInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-point cancellation test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	pts, _ := plantedPoints(rng, 100000, 60000, 2, 0.03)
	ds, err := Open(pts, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := ds.FindCluster(ctx, 50000, QueryOptions{Seed: 42})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled in-flight query: err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query did not return within 30s")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("cancellation took %v end to end", elapsed)
	}
	// The worker pools must drain: poll until the goroutine count returns
	// to (near) baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+2 {
		t.Errorf("goroutines leaked after cancellation: %d vs baseline %d", got, baseline)
	}
}

// TestOptionValidationEarly is the satellite regression suite: negative or
// out-of-range ε, δ, β and non-positive t are rejected with clear errors at
// Open/query time — on the handle and through the legacy free functions —
// instead of flowing through withDefaults unchecked.
func TestOptionValidationEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := plantedPoints(rng, 100, 60, 2, 0.02)

	t.Run("open", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			o    DatasetOptions
			want string
		}{
			{"negative budget epsilon", DatasetOptions{Budget: Budget{Epsilon: -1}}, "budget epsilon"},
			{"budget delta ≥ 1", DatasetOptions{Budget: Budget{Epsilon: 1, Delta: 1}}, "budget delta"},
			{"negative budget delta", DatasetOptions{Budget: Budget{Epsilon: 1, Delta: -0.1}}, "budget delta"},
			{"inverted domain", DatasetOptions{Min: 2, Max: 1}, "domain bounds"},
			{"unknown index policy", DatasetOptions{IndexPolicy: IndexPolicy(42)}, "index policy"},
		} {
			_, err := Open(pts, tc.o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
			}
		}
	})

	t.Run("query", func(t *testing.T) {
		ds, err := Open(pts, DatasetOptions{GridSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, tc := range []struct {
			name string
			q    QueryOptions
			want string
		}{
			{"negative epsilon", QueryOptions{Epsilon: -3}, "epsilon"},
			{"negative delta", QueryOptions{Delta: -1e-6}, "delta"},
			{"delta ≥ 1", QueryOptions{Delta: 1.5}, "delta"},
			{"negative beta", QueryOptions{Beta: -0.5}, "beta"},
			{"beta ≥ 1", QueryOptions{Beta: 1.5}, "beta"},
		} {
			if _, err := ds.FindCluster(ctx, 50, tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
			}
		}
		for _, badT := range []int{0, -5, len(pts) + 1} {
			if _, err := ds.FindCluster(ctx, badT, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "out of [1, n=") {
				t.Errorf("t=%d: err = %v, want range error", badT, err)
			}
		}
		if _, err := ds.FindClusters(ctx, 0, 50, QueryOptions{}); err == nil || !strings.Contains(err.Error(), "k ≥ 1") {
			t.Errorf("k=0: err = %v", err)
		}
	})

	t.Run("free functions", func(t *testing.T) {
		if _, err := FindCluster(pts, 50, Options{Epsilon: -1}); err == nil || !strings.Contains(err.Error(), "epsilon") {
			t.Errorf("FindCluster negative ε: %v", err)
		}
		if _, err := FindCluster(pts, 0, Options{Epsilon: 4, Delta: 0.05}); err == nil {
			t.Error("FindCluster t=0 accepted")
		}
		if _, err := FindClusters(pts, 2, 50, Options{Beta: 7}); err == nil || !strings.Contains(err.Error(), "beta") {
			t.Errorf("FindClusters β=7: %v", err)
		}
		vals := []float64{0.1, 0.2, 0.3, 0.4}
		if _, err := InteriorPoint(vals, 2, Options{Delta: -0.5}); err == nil || !strings.Contains(err.Error(), "delta") {
			t.Errorf("InteriorPoint negative δ: %v", err)
		}
		if _, err := Aggregate([]float64{1, 2}, func([]float64) Point { return Point{0} }, 1, 1, 0.5,
			Options{Epsilon: -2}); err == nil || !strings.Contains(err.Error(), "epsilon") {
			t.Errorf("Aggregate negative ε: %v", err)
		}
	})
}

// TestInteriorPointInfeasiblePreflight: the satellite routing InteriorPoint
// through the shared feasibility pre-flight — an inner target innerN/2 deep
// in the flaky t ≈ Γ regime is rejected with ErrInfeasible up front instead
// of failing with a late promise violation.
func TestInteriorPointInfeasiblePreflight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 2400)
	for i := range vals {
		vals[i] = rng.Float64() // continuous: no radius-zero escape
	}
	// innerN/2 = 400 ≪ the ≈ 2000 floor at the ε = 1, δ = 1e-6 defaults.
	_, err := InteriorPoint(vals, 800, Options{Seed: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("defaults with innerN=800: err = %v, want ErrInfeasible", err)
	}
	// The same innerN at a generous budget passes the pre-flight.
	if _, err := InteriorPoint(vals, 1600, Options{Epsilon: 4, Delta: 0.05, Seed: 11}); errors.Is(err, ErrInfeasible) {
		t.Errorf("workable regime rejected: %v", err)
	}
}

// TestAggregateInfeasiblePreflight: same satellite for Aggregate — the
// evaluations-stage feasibility check fires before the budget-spending
// aggregation.
func TestAggregateInfeasiblePreflight(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := make([]float64, 18000)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	spread := func(rs []float64) Point { // continuous evaluations: no escape
		var s float64
		for _, r := range rs {
			s += r
		}
		return Point{s / float64(len(rs))}
	}
	// k = 18000/(9·5) = 400, t = 0.9·400/2 = 180 ≪ the ≈ 2000 floor.
	_, err := Aggregate(rows, spread, 1, 5, 0.9, Options{Seed: 1})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("defaults: err = %v, want ErrInfeasible", err)
	}
}
