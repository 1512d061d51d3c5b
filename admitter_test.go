package privcluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
)

// recordingAdmitter is a test admission authority: it enforces an
// optional budget of its own and records every reserve/commit/release so
// tests can assert the two-phase protocol is followed exactly.
type recordingAdmitter struct {
	mu       sync.Mutex
	limit    Budget // zero = admit everything
	spent    Budget
	reserves []Budget
	commits  int
	releases int
}

func (a *recordingAdmitter) Reserve(ctx context.Context, cost Budget) (Reservation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.limit.IsZero() && !a.limit.allows(a.spent, cost) {
		return nil, &BudgetError{Total: a.limit, Spent: a.spent, Requested: cost}
	}
	a.spent.Epsilon += cost.Epsilon
	a.spent.Delta += cost.Delta
	a.reserves = append(a.reserves, cost)
	return &recordingReservation{a: a, cost: cost}, nil
}

type recordingReservation struct {
	a    *recordingAdmitter
	cost Budget
}

func (r *recordingReservation) Commit() error {
	r.a.mu.Lock()
	defer r.a.mu.Unlock()
	r.a.commits++
	return nil
}

func (r *recordingReservation) Release() error {
	r.a.mu.Lock()
	defer r.a.mu.Unlock()
	r.a.releases++
	r.a.spent.Epsilon = math.Max(0, r.a.spent.Epsilon-r.cost.Epsilon)
	r.a.spent.Delta = math.Max(0, r.a.spent.Delta-r.cost.Delta)
	return nil
}

// TestAdmitterReleasesIdentical pins the seam's no-op guarantee: an
// external admitter changes who accounts, never what is released. Under
// a fixed seed, a handle with a permissive admitter answers bit for bit
// what a plain handle (and the free function) answers.
func TestAdmitterReleasesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}

	ref, err := FindCluster(pts, 400, o)
	if err != nil {
		t.Fatal(err)
	}
	do := o.datasetOptions()
	do.Admitter = &recordingAdmitter{}
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.FindCluster(context.Background(), 400, o.queryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Radius != ref.Radius || got.RawRadius != ref.RawRadius ||
		got.Center[0] != ref.Center[0] || got.Center[1] != ref.Center[1] {
		t.Errorf("admitted handle release differs from the free function: %+v vs %+v", got, ref)
	}
}

// TestAdmitterProtocol verifies the two-phase contract end to end: one
// reserve per query with the exact (ε, δ) cost — doubled for
// InteriorPoint per Theorem 5.3 — one commit per completed mechanism, no
// stray releases, and the handle's Spent mirror tracking the admitted
// total.
func TestAdmitterProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}
	adm := &recordingAdmitter{}
	do := o.datasetOptions()
	do.Admitter = adm
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.FindCluster(context.Background(), 400, o.queryOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.FindClusters(context.Background(), 2, 300, o.queryOptions()); err != nil {
		t.Fatal(err)
	}
	if len(adm.reserves) != 2 || adm.commits != 2 || adm.releases != 0 {
		t.Fatalf("after two queries: reserves=%v commits=%d releases=%d", adm.reserves, adm.commits, adm.releases)
	}
	for i, cost := range adm.reserves {
		if cost != (Budget{Epsilon: 4, Delta: 0.05}) {
			t.Errorf("reserve %d cost = %v, want (4, 0.05)", i, cost)
		}
	}
	if got := ds.Spent(); got != (Budget{Epsilon: 8, Delta: 0.1}) {
		t.Errorf("Spent mirror = %v, want (8, 0.1)", got)
	}
	if _, enforced := ds.Remaining(); enforced {
		t.Error("Remaining claims an in-handle budget on an admitter-gated handle")
	}

	// InteriorPoint reserves the composed (2ε, 2δ) in one hold.
	vals := make([]Point, 2400)
	vrng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = Point{0.4 + 0.2*vrng.Float64()}
	}
	io := Options{Epsilon: 4, Delta: 0.05, Seed: 11}
	adm1 := &recordingAdmitter{}
	do1 := io.datasetOptions()
	do1.Admitter = adm1
	ds1, err := Open(vals, do1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds1.InteriorPoint(context.Background(), 1600, io.queryOptions()); err != nil {
		t.Fatal(err)
	}
	if len(adm1.reserves) != 1 || adm1.reserves[0] != (Budget{Epsilon: 8, Delta: 0.1}) {
		t.Errorf("InteriorPoint reserves = %v, want one (8, 0.1) hold", adm1.reserves)
	}
	if adm1.commits != 1 {
		t.Errorf("InteriorPoint commits = %d, want 1", adm1.commits)
	}
}

// TestAdmitterRefusal: a refusal from the external admitter surfaces to
// the caller unchanged (errors.Is-able as ErrBudgetExhausted, typed as
// *BudgetError) and runs no mechanism — the commit/release counters and
// the Spent mirror stay untouched.
func TestAdmitterRefusal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}
	adm := &recordingAdmitter{limit: Budget{Epsilon: 4, Delta: 0.05}}
	do := o.datasetOptions()
	do.Admitter = adm
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.FindCluster(context.Background(), 400, o.queryOptions()); err != nil {
		t.Fatal(err)
	}
	_, err = ds.FindCluster(context.Background(), 400, o.queryOptions())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second query err = %v, want ErrBudgetExhausted", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("refusal is not a *BudgetError: %v", err)
	}
	if be.Requested != (Budget{Epsilon: 4, Delta: 0.05}) {
		t.Errorf("refusal Requested = %v", be.Requested)
	}
	if adm.commits != 1 || adm.releases != 0 {
		t.Errorf("refused query settled something: commits=%d releases=%d", adm.commits, adm.releases)
	}
	if got := ds.Spent(); got != (Budget{Epsilon: 4, Delta: 0.05}) {
		t.Errorf("refused query moved the Spent mirror: %v", got)
	}
}

// TestAdmitterReleaseOnBuildFailure: admission precedes the index build,
// so a failed build must hand the hold back — the mechanism provably
// never ran. A remote handle whose dialer always fails is the one
// reliable way to make the build itself fail after validation.
func TestAdmitterReleaseOnBuildFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, Seed: 7, GridSize: 1024}
	adm := &recordingAdmitter{}
	do := o.datasetOptions()
	do.Admitter = adm
	do.Placement = placementOf([]string{"unreachable:0"}, 1, 1, func(ctx context.Context, addr string) (net.Conn, error) {
		return nil, errors.New("dial refused by test")
	})
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.FindCluster(context.Background(), 400, o.queryOptions()); err == nil {
		t.Fatal("query succeeded through an undialable remote index")
	}
	if len(adm.reserves) != 1 || adm.releases != 1 || adm.commits != 0 {
		t.Fatalf("build failure settled wrong: reserves=%d commits=%d releases=%d",
			len(adm.reserves), adm.commits, adm.releases)
	}
	if got := ds.Spent(); !got.IsZero() {
		t.Errorf("failed build left Spent mirror at %v", got)
	}
}

// TestAdmitterExclusiveWithBudget: setting both gates is an Open-time
// error — exactly one authority may own admission.
func TestAdmitterExclusiveWithBudget(t *testing.T) {
	pts := []Point{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}}
	_, err := Open(pts, DatasetOptions{
		Budget:   Budget{Epsilon: 1, Delta: 1e-6},
		Admitter: &recordingAdmitter{},
	})
	if err == nil {
		t.Fatal("Open accepted Budget and Admitter together")
	}
}

// TestAdmitterBatch: the batch executor funnels every query through the
// same admission seam — one reserve per admitted query.
func TestAdmitterBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := plantedPoints(rng, 800, 500, 2, 0.02)
	o := Options{Epsilon: 4, Delta: 0.05, GridSize: 1024}
	adm := &recordingAdmitter{}
	do := o.datasetOptions()
	do.Admitter = adm
	ds, err := Open(pts, do)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Query{
		{T: 400, Opts: QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 1}},
		{K: 2, T: 300, Opts: QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 2}},
	}
	res := ds.FindClustersBatch(context.Background(), reqs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch query %d: %v", i, r.Err)
		}
	}
	if len(adm.reserves) != 2 || adm.commits != 2 {
		t.Errorf("batch of 2: reserves=%d commits=%d", len(adm.reserves), adm.commits)
	}
}
