package privcluster

// The benchmark suite regenerates, in quick mode, every table and figure
// reproduced from the paper (one benchmark per artifact, indexed by the
// internal/experiments package), plus micro-benchmarks of the pipeline stages.
// Run with:
//
//	go test -bench=. -benchmem
//
// For the full-size experiment tables, use cmd/experiments instead.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"privcluster/internal/bench"
	"privcluster/internal/core"
	"privcluster/internal/dp"
	"privcluster/internal/experiments"
	"privcluster/internal/geometry"
	"privcluster/internal/vec"
	"privcluster/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fixed seed keeps every iteration on the known-good
		// deterministic path; experiments are pure functions of the seed.
		tables := e.Run(1, true)
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (all four 1-cluster solutions).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (empty intersection of heavy
// intervals).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFigure2 regenerates Figure 2 (interval extension capture).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkRadiusVsN regenerates the w = O(√log n) sweep (Theorem 3.2).
func BenchmarkRadiusVsN(b *testing.B) { benchExperiment(b, "radius-w") }

// BenchmarkDeltaVsDomain regenerates the Δ-vs-|X| sweep (Lemma 3.6 vs the
// threshold-release baseline).
func BenchmarkDeltaVsDomain(b *testing.B) { benchExperiment(b, "delta-logstar") }

// BenchmarkIntPoint regenerates the Theorem 5.3 reduction experiment.
func BenchmarkIntPoint(b *testing.B) { benchExperiment(b, "intpoint") }

// BenchmarkSampleAggregate regenerates the Theorem 6.3 experiment.
func BenchmarkSampleAggregate(b *testing.B) { benchExperiment(b, "sa") }

// BenchmarkKCover regenerates the Observation 3.5 experiment.
func BenchmarkKCover(b *testing.B) { benchExperiment(b, "kcover") }

// BenchmarkAblations regenerates the three design-choice ablations.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkEpsilonSweep regenerates the utility-vs-ε cliff (Theorem 3.2's
// 1/ε pricing).
func BenchmarkEpsilonSweep(b *testing.B) { benchExperiment(b, "eps-sweep") }

// BenchmarkKMeans regenerates the private k-means application comparison.
func BenchmarkKMeans(b *testing.B) { benchExperiment(b, "kmeans") }

// BenchmarkTMin regenerates the minimal-workable-t measurement.
func BenchmarkTMin(b *testing.B) { benchExperiment(b, "tmin") }

// BenchmarkLowerBound regenerates the §5 lower-bound landscape table.
func BenchmarkLowerBound(b *testing.B) { benchExperiment(b, "lowerbound") }

// ---- Stage micro-benchmarks --------------------------------------------

func benchSetup(b *testing.B, n, d int) ([]vec.Vector, core.Params) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	grid, err := geometry.NewGrid(1024, d)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := workload.PlantedBall{N: n, ClusterSize: 3 * n / 5, Radius: 0.02}.Generate(rng, grid)
	if err != nil {
		b.Fatal(err)
	}
	prm := core.Params{
		T:       n / 2,
		Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
		Beta:    0.1,
		Grid:    grid,
	}
	return inst.Points, prm
}

// benchFrame converts benchmark points to the flat frame every index and
// GoodCenter entry point takes — once, before the timer.
func benchFrame(b *testing.B, pts []vec.Vector) *vec.Frame {
	b.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkGoodRadius times Algorithm 1 alone (n=800, d=2), excluding the
// one-off O(n² log n) distance-index construction.
func BenchmarkGoodRadius(b *testing.B) {
	pts, prm := benchSetup(b, 800, 2)
	ix, err := geometry.NewDistanceIndexFrame(benchFrame(b, pts))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GoodRadius(rng, ix, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoodCenter times Algorithm 2 alone (n=800, d=2).
func BenchmarkGoodCenter(b *testing.B) {
	pts, prm := benchSetup(b, 800, 2)
	frame := benchFrame(b, pts)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GoodCenterFrame(rng, frame, 0.05, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneClusterPipeline times the full pipeline end to end through
// the public API (n=800, d=2).
func BenchmarkOneClusterPipeline(b *testing.B) {
	pts, _ := benchSetup(b, 800, 2)
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindCluster(pub, 400, Options{
			Epsilon: 4, Delta: 0.05, Seed: int64(i) + 1, GridSize: 1024,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- GoodCenter box-partition engine benchmarks ------------------------
//
// The box-partition loop is GoodCenter's hot path at scale: one O(n·k)
// count pass per SVT repetition. The engine bit-packs (or hash-combines)
// the per-axis cell indices into a uint64 and reuses every histogram and
// buffer across repetitions:
//
//	go test -bench BenchmarkGoodCenter -benchmem

func benchGoodCenterAt(b *testing.B, n int) {
	b.Helper()
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, n, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	prm := core.Params{
		T:       tt,
		Privacy: dp.Params{Epsilon: 4, Delta: 0.05},
		Beta:    0.1,
		Grid:    grid,
		Profile: core.DefaultProfile(),
	}
	frame := benchFrame(b, pts)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GoodCenterFrame(rng, frame, 0.05, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGoodCenterPacked exercises the packed-key engine across the
// 2k–500k range.
func BenchmarkGoodCenterPacked(b *testing.B) {
	for _, n := range []int{2000, 20000, 100000, 500000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchGoodCenterAt(b, n)
		})
	}
}

// BenchmarkDistanceIndex times the O(n²) preprocessing shared by the
// pipeline (n=800, d=2).
func BenchmarkDistanceIndex(b *testing.B) {
	pts, _ := benchSetup(b, 800, 2)
	f := benchFrame(b, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geometry.NewDistanceIndexFrame(f); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- BallIndex backend benchmarks ------------------------------------
//
// The radius stage's preprocessing (index construction + BuildLStep, the
// scale ceiling of the whole pipeline) on both backends, with allocation
// reporting so the Θ(n²) vs O(n·d) memory gap is measurable:
//
//	go test -bench BenchmarkBallIndex -benchmem
//
// The exact backend stops at n=8000 (its distance matrix is ≈ 8n² bytes —
// already half a gigabyte there); the scalable backend continues through
// the 50k–500k range the exact one cannot reach.

func benchIndexRadiusStage(b *testing.B, n int, pol core.IndexPolicy) {
	b.Helper()
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, n, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	frame := benchFrame(b, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := core.NewBallIndexFrame(frame, grid, pol, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ix.BuildLStep(context.Background(), tt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBallIndexExact(b *testing.B) {
	for _, n := range []int{2000, 4000, 8000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexRadiusStage(b, n, core.IndexExact)
		})
	}
}

func BenchmarkBallIndexScalable(b *testing.B) {
	for _, n := range []int{2000, 8000, 50000, 100000, 500000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchIndexRadiusStage(b, n, core.IndexScalable)
		})
	}
}

// BenchmarkFindClustersBatch compares issuing four warm queries
// sequentially against running them through the batch executor on the same
// prepared handle. Releases are identical; the batch overlaps the
// per-query mechanism work across cores (equal on a single core).
func BenchmarkFindClustersBatch(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, 100000, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	ts := []int{tt - 2000, tt - 1000, tt, tt + 1000}
	open := func(b *testing.B) *Dataset {
		b.Helper()
		ds, err := Open(pub, DatasetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		// Prime the cached index and the per-t L sweeps outside the timer;
		// every timed iteration is then pure query work.
		for _, t := range ts {
			if _, err := ds.FindCluster(context.Background(), t, QueryOptions{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		return ds
	}
	b.Run("sequential", func(b *testing.B) {
		ds := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k, t := range ts {
				if _, err := ds.FindCluster(context.Background(), t, QueryOptions{Seed: int64(4*i+k) + 2}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		ds := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := make([]Query, len(ts))
			for k, t := range ts {
				batch[k] = Query{T: t, Opts: QueryOptions{Seed: int64(4*i+k) + 2}}
			}
			for _, res := range ds.FindClustersBatch(context.Background(), batch) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkDatasetReuse pins the handle API's amortization win at
// n = 100k: "cold" opens a fresh Dataset per query (every iteration pays
// quantization + index construction, like the one-shot free functions),
// "warm" queries one prepared handle whose cached index was built before
// the timer started. The warm numbers must show the preprocessing gone —
// a large drop in both ns/op and allocs/op:
//
//	go test -bench BenchmarkDatasetReuse -benchmem
func BenchmarkDatasetReuse(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, 100000, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds, err := Open(pub, DatasetOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ds.FindCluster(context.Background(), tt, QueryOptions{Seed: int64(i) + 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ds, err := Open(pub, DatasetOptions{})
		if err != nil {
			b.Fatal(err)
		}
		// Prime the cached index outside the timer; every timed iteration
		// is then a pure query.
		if _, err := ds.FindCluster(context.Background(), tt, QueryOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ds.FindCluster(context.Background(), tt, QueryOptions{Seed: int64(i) + 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetReuseTraced is the warm-query benchmark with tracing: the
// "off" variant is the tracing-disabled fast path (what BenchmarkDatasetReuse
// warm gates — coarse stage timers only, no span bookkeeping, so its
// allocs/op must not move), the "on" variant runs every query under
// WithTrace and prices the full span tree. Recorded in the CI artifact for
// comparison, not gated: the traced path is opt-in per query.
func BenchmarkDatasetReuseTraced(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, 100000, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	ds, err := Open(pub, DatasetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ds.FindCluster(context.Background(), tt, QueryOptions{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ds.FindCluster(context.Background(), tt, QueryOptions{Seed: int64(i) + 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := WithTrace(context.Background())
			if _, err := ds.FindCluster(ctx, tt, QueryOptions{Seed: int64(i) + 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameSweep pins the flat-frame distance kernels everything above
// rests on: one strided pass over a 100k-row frame with caller-owned output
// buffers. Zero allocs/op and B/op are the contract — a regression here
// means some layer reintroduced per-row allocation into the hot sweep.
func BenchmarkFrameSweep(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 8)
	if err != nil {
		b.Fatal(err)
	}
	pts, _, err := bench.IndexWorkload(1, 100000, 8, grid)
	if err != nil {
		b.Fatal(err)
	}
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		b.Fatal(err)
	}
	q := f.Row(0).Clone()
	out := make([]float64, f.N())
	b.Run("distsq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.DistSqInto(q, out)
		}
	})
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if f.CountWithin(q, 0.25) == 0 {
				b.Fatal("empty ball")
			}
		}
	})
}

// BenchmarkFindClusterScalable times the full pipeline through the public
// API at a size the exact backend cannot represent at all.
func BenchmarkFindClusterScalable(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, 50000, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindCluster(pub, tt, Options{Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendMerge is the steady-state streaming cycle on a warm
// mutable handle. Every iteration is one whole 8-op cycle: eight times, it
// appends a 64-row batch and answers one seeded query pinned at the fresh
// epoch (a full snapshot build plus the L-sweep — the real serving cost of
// an advancing epoch: per-epoch caches cannot help a brand-new epoch, but
// the epoch chain extends the previous epoch's count blocks and duplicate
// table through the new batch, and the first epoch after a delete recounts); then
// it deletes the oldest surviving batch and merges the append deltas into
// the shard bases. A whole cycle per iteration keeps B/op and allocs/op
// independent of b.N. What the gate watches: allocs/op regressions here
// mean the epoch-view or delta-merge path started copying or rebuilding
// more than the mutation batch warrants.
func BenchmarkAppendMerge(b *testing.B) {
	grid, err := geometry.NewGrid(1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	pts, tt, err := bench.IndexWorkload(1, 20000, 2, grid)
	if err != nil {
		b.Fatal(err)
	}
	pub := make([]Point, len(pts))
	for i, p := range pts {
		pub[i] = Point(p)
	}
	ds, err := Open(pub, DatasetOptions{Mutable: true})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	ctx := context.Background()
	// Prime the handle outside the timer: first epoch pinned, first sweep
	// done — iterations then measure the advancing-epoch cycle alone.
	if _, err := ds.FindCluster(ctx, tt, QueryOptions{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	var batches [][]uint64
	batch := make([]Point, 64)
	next, seed := 0, int64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for op := 0; op < 8; op++ {
			for j := range batch {
				batch[j] = pub[next%len(pub)]
				next++
			}
			ids, _, err := ds.Append(ctx, batch)
			if err != nil {
				b.Fatal(err)
			}
			batches = append(batches, ids)
			seed++
			if _, err := ds.FindCluster(ctx, tt, QueryOptions{Seed: seed}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := ds.Delete(ctx, batches[0]); err != nil {
			b.Fatal(err)
		}
		batches = batches[1:]
		if err := ds.Merge(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
