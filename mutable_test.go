package privcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// freshRelease opens an immutable handle over pts with the scalable index
// (the backend every mutable handle uses — small n would otherwise
// auto-resolve to the exact index, which is not bit-comparable) and runs
// the full seeded query battery: 1-cluster, k-cover, and a batch.
type releaseSet struct {
	one   Cluster
	cover []Cluster
	batch []BatchResult
}

func queryBattery(t *testing.T, ds *Dataset, tgt int, at uint64) releaseSet {
	t.Helper()
	ctx := context.Background()
	q := QueryOptions{Epsilon: 4, Delta: 1e-5, Seed: 9, AtEpoch: at}
	qk := QueryOptions{Epsilon: 8, Delta: 4e-5, Seed: 4, AtEpoch: at}
	one, err := ds.FindCluster(ctx, tgt, q)
	if err != nil {
		t.Fatal(err)
	}
	cover, err := ds.FindClusters(ctx, 2, tgt/2, qk)
	if err != nil {
		t.Fatal(err)
	}
	batch := ds.FindClustersBatch(ctx, []Query{
		{T: tgt, Opts: q},
		{T: tgt / 2, K: 2, Opts: qk},
	})
	for _, r := range batch {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return releaseSet{one: one, cover: cover, batch: batch}
}

func freshRelease(t *testing.T, pts []Point, o DatasetOptions, tgt int) releaseSet {
	t.Helper()
	o.Mutable = false
	o.IndexPolicy = IndexScalable
	ds, err := Open(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	return queryBattery(t, ds, tgt, 0)
}

func assertSameReleases(t *testing.T, tag string, got, want releaseSet) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: releases diverged:\n got %+v\nwant %+v", tag, got, want)
	}
}

// TestMutableReleaseEquivalence is the streaming tentpole at the public
// API: Open(prefix)+Append(rest) releases bit-identically to Open(all) at
// every cluster entry point — on the local and the remote backends,
// before and after Merge, with old epochs still answering for
// their own point sets, and with deletes matching a fresh open of the
// survivors.
func TestMutableReleaseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, _ := plantedPoints(rng, 1200, 800, 2, 0.02)
	n0 := 900
	tgt := 500

	variants := []struct {
		name string
		opts func(t *testing.T) DatasetOptions
	}{
		{"unsharded", func(t *testing.T) DatasetOptions { return DatasetOptions{} }},
		{"remote", func(t *testing.T) DatasetOptions {
			addrs, ln := startLoopbackServers(t, 2)
			return DatasetOptions{Placement: placementOf(addrs, len(addrs), 1, ln.Dial)}
		}},
	}

	// One fresh reference per point set: mutation and transport never
	// change releases, so every variant must match the same battery.
	wantPrefix := freshRelease(t, pts[:n0], DatasetOptions{}, tgt)
	wantAll := freshRelease(t, pts, DatasetOptions{}, tgt)

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			o := v.opts(t)
			o.Mutable = true
			ds, err := Open(pts[:n0], o)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if e := ds.Epoch(); e != 1 {
				t.Fatalf("epoch after Open = %d, want 1", e)
			}
			assertSameReleases(t, "epoch1", queryBattery(t, ds, tgt, 0), wantPrefix)

			ids, e2, err := ds.Append(context.Background(), pts[n0:])
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != len(pts)-n0 || e2 != 2 {
				t.Fatalf("append: %d ids, epoch %d", len(ids), e2)
			}
			if ds.N() != len(pts) {
				t.Fatalf("N after append = %d, want %d", ds.N(), len(pts))
			}
			// Pre-merge: the delta rows answer through the epoch view.
			assertSameReleases(t, "epoch2-premerge", queryBattery(t, ds, tgt, 0), wantAll)
			// The old epoch still answers for its own point set.
			assertSameReleases(t, "epoch1-pinned", queryBattery(t, ds, tgt, 1), wantPrefix)
			if err := ds.Merge(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertSameReleases(t, "epoch2-postmerge", queryBattery(t, ds, tgt, 2), wantAll)

			// Delete a mix of seed and appended rows: releases match a
			// fresh open of the survivors in insertion order.
			del := []uint64{5, 11, uint64(n0) + 3, uint64(n0) + 40}
			e3, err := ds.Delete(context.Background(), del)
			if err != nil {
				t.Fatal(err)
			}
			if e3 != 3 {
				t.Fatalf("delete: epoch %d, want 3", e3)
			}
			gone := map[uint64]bool{}
			for _, id := range del {
				gone[id] = true
			}
			var surv []Point
			for i, p := range pts {
				if !gone[uint64(i)] {
					surv = append(surv, p)
				}
			}
			assertSameReleases(t, "epoch3-deleted", queryBattery(t, ds, tgt, 0),
				freshRelease(t, surv, DatasetOptions{}, tgt))
		})
	}
}

// TestMutableInteriorPointEquivalence is the 1-D streaming contract:
// InteriorPoint on a mutable handle releases bit-identically to a fresh
// handle over the pinned epoch's raw values — through appends, epoch
// pinning, and deletes.
func TestMutableInteriorPointEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts, _ := plantedPoints(rng, 600, 400, 1, 0.02)
	n0 := 450
	ctx := context.Background()
	q := QueryOptions{Epsilon: 8, Delta: 0.05, Seed: 21}

	fresh := func(rows []Point) float64 {
		t.Helper()
		ref, err := Open(rows, DatasetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		v, err := ref.InteriorPoint(ctx, 200, q)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	ds, err := Open(pts[:n0], DatasetOptions{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	got, err := ds.InteriorPoint(ctx, 200, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(pts[:n0]); got != want {
		t.Fatalf("epoch1 interior point = %v, want %v", got, want)
	}

	if _, _, err := ds.Append(ctx, pts[n0:]); err != nil {
		t.Fatal(err)
	}
	got, err = ds.InteriorPoint(ctx, 200, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(pts); got != want {
		t.Fatalf("epoch2 interior point = %v, want %v", got, want)
	}
	// Pinned at the pre-append epoch, the old release comes back.
	pinned := q
	pinned.AtEpoch = 1
	got, err = ds.InteriorPoint(ctx, 200, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(pts[:n0]); got != want {
		t.Fatalf("epoch1-pinned interior point = %v, want %v", got, want)
	}

	del := []uint64{0, 7, uint64(n0) + 2}
	if _, err := ds.Delete(ctx, del); err != nil {
		t.Fatal(err)
	}
	gone := map[uint64]bool{}
	for _, id := range del {
		gone[id] = true
	}
	var surv []Point
	for i, p := range pts {
		if !gone[uint64(i)] {
			surv = append(surv, p)
		}
	}
	got, err = ds.InteriorPoint(ctx, 200, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(surv); got != want {
		t.Fatalf("epoch3 interior point = %v, want %v", got, want)
	}
	// Epoch 1 was pinned before the delete retired it, so its cached
	// entry still serves the old release.
	got, err = ds.InteriorPoint(ctx, 200, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh(pts[:n0]); got != want {
		t.Fatalf("epoch1-pinned interior point after the delete = %v, want %v", got, want)
	}
}

// TestMutableEpochParity: on a 1-D mutable handle FindCluster and
// InteriorPoint follow one retirement rule. An epoch either of them pinned
// before a delete still answers both after it — InteriorPoint
// bit-identically to a fresh Open on that epoch's points — and an epoch
// neither pinned fails for both with ErrEpochRetired.
func TestMutableEpochParity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	pts := make([]Point, 1200)
	for i := range pts {
		pts[i] = Point{0.4 + 0.2*rng.Float64()}
	}
	o := DatasetOptions{GridSize: 1024, Mutable: true}
	ds, err := Open(pts[:800], o)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, rows := range [][]Point{pts[800:1000], pts[1000:]} {
		if _, _, err := ds.Append(ctx, rows); err != nil {
			t.Fatal(err)
		}
	}
	at := func(e uint64) QueryOptions { return QueryOptions{Epsilon: 4, Delta: 0.05, Seed: 3, AtEpoch: e} }
	// Epoch 2 is pinned by FindCluster only, epoch 3 by InteriorPoint only.
	if _, err := ds.FindCluster(ctx, 400, at(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.InteriorPoint(ctx, 600, at(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete(ctx, []uint64{0, 900}); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		e    uint64
		rows []Point
	}{{2, pts[:1000]}, {3, pts}} {
		e := ep.e
		if _, err := ds.FindCluster(ctx, 400, at(e)); err != nil {
			t.Fatalf("epoch %d FindCluster after the delete: %v", e, err)
		}
		got, err := ds.InteriorPoint(ctx, 600, at(e))
		if err != nil {
			t.Fatalf("epoch %d InteriorPoint after the delete: %v", e, err)
		}
		ref, err := Open(ep.rows, DatasetOptions{GridSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if want, err := ref.InteriorPoint(ctx, 600, at(0)); err != nil || got != want {
			t.Fatalf("epoch %d InteriorPoint after the delete = %v, fresh Open gives %v (%v)", e, got, want, err)
		}
	}
	if _, err := ds.FindCluster(ctx, 400, at(1)); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("FindCluster at a never-pinned retired epoch: %v, want ErrEpochRetired", err)
	}
	if _, err := ds.InteriorPoint(ctx, 600, at(1)); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("InteriorPoint at a never-pinned retired epoch: %v, want ErrEpochRetired", err)
	}
}

// TestMutableGuards covers the configuration and epoch-pinning rejections.
func TestMutableGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, _ := plantedPoints(rng, 300, 200, 2, 0.02)
	ctx := context.Background()

	if _, err := Open(pts, DatasetOptions{Mutable: true, IndexPolicy: IndexExact}); err == nil {
		t.Fatal("Mutable+IndexExact accepted")
	}

	imm, err := Open(pts, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer imm.Close()
	if _, _, err := imm.Append(ctx, pts[:1]); err == nil || !strings.Contains(err.Error(), "Mutable") {
		t.Fatalf("Append on immutable handle: %v", err)
	}
	if _, err := imm.Delete(ctx, []uint64{0}); err == nil {
		t.Fatal("Delete on immutable handle succeeded")
	}
	if err := imm.Merge(ctx); err == nil {
		t.Fatal("Merge on immutable handle succeeded")
	}
	if e := imm.Epoch(); e != 0 {
		t.Fatalf("immutable Epoch() = %d, want 0", e)
	}
	if _, err := imm.FindCluster(ctx, 150, QueryOptions{AtEpoch: 1, Seed: 1}); err == nil {
		t.Fatal("AtEpoch on immutable handle accepted")
	}
	if _, err := imm.InteriorPoint(ctx, 10, QueryOptions{AtEpoch: 1, Seed: 1}); err == nil {
		t.Fatal("AtEpoch InteriorPoint on immutable handle accepted")
	}

	mut, err := Open(pts, DatasetOptions{Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mut.Close()
	if _, err := mut.FindCluster(ctx, 150, QueryOptions{AtEpoch: 99, Seed: 1}); !errors.Is(err, ErrEpochRetired) {
		t.Fatalf("future epoch pin: %v, want ErrEpochRetired", err)
	}
	if _, _, err := mut.Append(ctx, nil); err == nil {
		t.Fatal("empty Append accepted")
	}
	if _, _, err := mut.Append(ctx, []Point{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-dimension Append accepted")
	}
	if _, err := mut.Delete(ctx, []uint64{999999}); err == nil {
		t.Fatal("unknown-id Delete accepted")
	}
}

// TestMutableBudgetUntouched: mutation is free — the ledger moves only on
// releases, exactly as on an immutable handle.
func TestMutableBudgetUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, _ := plantedPoints(rng, 400, 300, 2, 0.02)
	ctx := context.Background()
	ds, err := Open(pts[:300], DatasetOptions{Mutable: true, Budget: Budget{Epsilon: 100, Delta: 1e-2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, _, err := ds.Append(ctx, pts[300:]); err != nil {
		t.Fatal(err)
	}
	if err := ds.Merge(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Delete(ctx, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Spent(); !got.IsZero() {
		t.Fatalf("mutations spent budget: %+v", got)
	}
	if _, err := ds.FindCluster(ctx, 250, QueryOptions{Epsilon: 8, Delta: 1e-5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Spent(); got.Epsilon != 8 || got.Delta != 1e-5 {
		t.Fatalf("release charged %+v, want (8, 1e-5)", got)
	}
}

// TestDatasetClosed: after Close every query and mutation fails with the
// typed ErrClosed, and Close is idempotent — on mutable and immutable
// handles alike.
func TestDatasetClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := plantedPoints(rng, 300, 200, 1, 0.02)
	ctx := context.Background()

	for _, mutable := range []bool{false, true} {
		ds, err := Open(pts, DatasetOptions{Mutable: mutable})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatalf("second Close: %v, want nil", err)
		}
		if _, err := ds.FindCluster(ctx, 150, QueryOptions{Seed: 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v FindCluster after Close: %v, want ErrClosed", mutable, err)
		}
		if _, err := ds.FindClusters(ctx, 2, 100, QueryOptions{Seed: 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v FindClusters after Close: %v, want ErrClosed", mutable, err)
		}
		if _, err := ds.InteriorPoint(ctx, 50, QueryOptions{Seed: 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v InteriorPoint after Close: %v, want ErrClosed", mutable, err)
		}
		if _, _, err := ds.Append(ctx, pts[:1]); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v Append after Close: %v, want ErrClosed", mutable, err)
		}
		if _, err := ds.Delete(ctx, []uint64{0}); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v Delete after Close: %v, want ErrClosed", mutable, err)
		}
		if err := ds.Merge(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("mutable=%v Merge after Close: %v, want ErrClosed", mutable, err)
		}
	}
}

// TestMutableConcurrentQueries runs a mutator against concurrent seeded
// queriers (run under -race in CI): a query pinned at an epoch must
// release the same output twice regardless of interleaved appends,
// deletes, and merges; losing a pin to a delete is the one legal failure.
func TestMutableConcurrentQueries(t *testing.T) {
	for _, d := range []int{2, 1} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(44))
			pts, _ := plantedPoints(rng, 900, 600, d, 0.02)
			extra, _ := plantedPoints(rand.New(rand.NewSource(45)), 400, 200, d, 0.02)
			ctx := context.Background()
			ds, err := Open(pts, DatasetOptions{Mutable: true})
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			// A 1-D handle's queriers run InteriorPoint, whose raw values come
			// from the same epoch entry the snapshot does.
			query := func(q QueryOptions) (any, error) {
				if d == 1 {
					q.Delta = 0.05
					return ds.InteriorPoint(ctx, 400, q)
				}
				return ds.FindCluster(ctx, 500, q)
			}

			stop := make(chan struct{})
			var mwg, qwg sync.WaitGroup
			mwg.Add(1)
			go func() { // mutator
				defer mwg.Done()
				var appended []uint64
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					lo := (i * 16) % len(extra)
					hi := lo + 16
					if hi > len(extra) {
						hi = len(extra)
					}
					ids, _, err := ds.Append(ctx, extra[lo:hi])
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					appended = append(appended, ids...)
					if i%5 == 4 && len(appended) > 8 {
						if _, err := ds.Delete(ctx, appended[:4]); err != nil {
							t.Errorf("delete: %v", err)
							return
						}
						appended = appended[4:]
					}
					if i%7 == 6 {
						if err := ds.Merge(ctx); err != nil {
							t.Errorf("merge: %v", err)
							return
						}
					}
				}
			}()
			for g := 0; g < 3; g++ {
				qwg.Add(1)
				go func(g int) {
					defer qwg.Done()
					for i := 0; i < 6; i++ {
						e := ds.Epoch()
						// Seed 0 is the fresh-from-the-clock sentinel — skip it.
						q := QueryOptions{Epsilon: 4, Delta: 1e-5, Seed: int64(100*g + i + 1), AtEpoch: e}
						a, err1 := query(q)
						b, err2 := query(q)
						if errors.Is(err1, ErrEpochRetired) || errors.Is(err2, ErrEpochRetired) {
							continue // a delete raced the pin: legal, try again
						}
						if err1 != nil || err2 != nil {
							// A mechanism failure (e.g. the recconcave quality
							// promise) is a deterministic function of (epoch, seed):
							// both calls must fail identically, just as successes
							// must match bit-for-bit.
							if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
								t.Errorf("querier %d epoch %d: pinned outcomes diverged: %v / %v", g, e, err1, err2)
								return
							}
							continue
						}
						if !reflect.DeepEqual(a, b) {
							t.Errorf("querier %d epoch %d: pinned releases diverged:\n%+v\n%+v", g, e, a, b)
							return
						}
					}
				}(g)
			}
			qwg.Wait()
			close(stop)
			mwg.Wait()
		})
	}
}

// TestMutableQueryCancellation: a context cancelled before the query
// starts consumes no budget and surfaces the cancellation, on the epoch
// path too.
func TestMutableQueryCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := plantedPoints(rng, 400, 300, 2, 0.02)
	ds, err := Open(pts, DatasetOptions{Mutable: true, Budget: Budget{Epsilon: 10, Delta: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ds.FindCluster(ctx, 200, QueryOptions{Epsilon: 1, Delta: 1e-5, Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: %v, want context.Canceled", err)
	}
	if got := ds.Spent(); !got.IsZero() {
		t.Fatalf("cancelled query spent %+v", got)
	}
}
