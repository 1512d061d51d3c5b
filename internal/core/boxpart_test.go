package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"privcluster/internal/dp"
	"privcluster/internal/geometry"
	"privcluster/internal/stability"
	"privcluster/internal/vec"
)

// frameOf packs test vectors into a flat frame, failing the test on ragged
// input.
func frameOf(t *testing.T, pts []vec.Vector) *vec.Frame {
	t.Helper()
	f, err := vec.FrameFromVectors(pts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// indexOf builds the ball index prm selects over test vectors.
func indexOf(t *testing.T, pts []vec.Vector, prm Params) geometry.BallIndex {
	t.Helper()
	ix, err := NewBallIndexFrame(frameOf(t, pts), prm.Grid, prm.Index, prm.Profile.Workers)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// randomProj builds a random "projected" point set with the given dimension
// and coordinate span (centered on zero, so negative cell indices are
// exercised).
func randomProj(rng *rand.Rand, n, k int, span float64) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		p := make(vec.Vector, k)
		for a := range p {
			p[a] = (rng.Float64() - 0.5) * span
		}
		out[i] = p
	}
	return out
}

// boxKey is the reference box encoding: the box index of a projected point
// under the given shifted partition, as 8 little-endian bytes per axis.
func boxKey(p vec.Vector, offsets []float64, side float64) string {
	buf := make([]byte, 0, len(p)*8)
	for i, x := range p {
		j := int64(math.Floor((x - offsets[i]) / side))
		for b := 0; b < 8; b++ {
			buf = append(buf, byte(uint64(j)>>(8*b)))
		}
	}
	return string(buf)
}

// boxHistogram is the oracle the engines are pinned to: projected points
// counted per box, keyed by boxKey.
func boxHistogram(proj []vec.Vector, offsets []float64, side float64) map[string]int {
	h := make(map[string]int, len(proj))
	for _, p := range proj {
		h[boxKey(p, offsets, side)]++
	}
	return h
}

// boxCoords decodes a boxKey back into its per-axis cell indices.
func boxCoords(key string) []int64 {
	coords := make([]int64, len(key)/8)
	for a := range coords {
		var u uint64
		for b := 7; b >= 0; b-- {
			u = u<<8 | uint64(key[a*8+b])
		}
		coords[a] = int64(u)
	}
	return coords
}

// oracleCanonical is the oracle's canonical enumeration: the boxes sorted
// by cell coordinates (axis 0 most significant), with their counts.
func oracleCanonical(hist map[string]int) (keys []string, counts []int) {
	keys = make([]string, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y string) int { return slices.Compare(boxCoords(x), boxCoords(y)) })
	counts = make([]int, len(keys))
	for i, k := range keys {
		counts[i] = hist[k]
	}
	return keys, counts
}

// oracleSelect is selectBox computed from the oracle histogram: the boxes
// in canonical order (cell coordinates, axis 0 most significant), one
// stability choice over their counts, and the winner's members ascending.
func oracleSelect(t *testing.T, rng *rand.Rand, p stability.Params, proj []vec.Vector, offsets []float64, side float64) boxSelection {
	t.Helper()
	keys, counts := oracleCanonical(boxHistogram(proj, offsets, side))
	res, err := stability.ChooseIndexed(rng, counts, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottom {
		return boxSelection{Bottom: true}
	}
	var members []int
	for i, q := range proj {
		if boxKey(q, offsets, side) == keys[res.Key] {
			members = append(members, i)
		}
	}
	return boxSelection{Members: members}
}

// coderEngines returns the engines to pin against the oracle: the one
// newBoxPartition picks, plus each coder forced — hashing always, bit
// packing when the data's bit budget fits 64 bits. The bits engine runs on
// a lent scratch, the others on their own buffers.
func coderEngines(t *testing.T, proj []vec.Vector, side float64, workers int) map[string]*boxEngine {
	t.Helper()
	f := frameOf(t, proj)
	prof := DefaultProfile()
	prof.Workers = workers
	auto, err := newBoxPartition(f, side, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*boxEngine{
		"auto": auto.(*boxEngine),
		"hash": newBoxEngine(f, side, workers, &hashCoder{side: side}, nil),
	}
	if c, ok := newBitsCoder(f, side); ok {
		engines["bits"] = newBoxEngine(f, side, workers, c, NewQueryScratch())
	}
	return engines
}

// TestBoxPartitionMatchesLegacyHistogram pins both coders (and the one
// newBoxPartition selects) to the string-key oracle bit-exactly, serially
// and on the parallel path (n ≥ minParallelPoints at 3 workers): same
// per-repetition max count, same per-box counts, the identical grouping of
// points into boxes (key representations may differ; the induced partition
// may not), and count-table entries in first-seen order, each carrying the
// first row of its box.
func TestBoxPartitionMatchesLegacyHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name  string
		k, n  int
		span  float64
		side  float64
		packs bool // the bit budget fits 64 bits
	}{
		{"k1-serial", 1, 300, 2, 0.3, true},
		{"k2-parallel", 2, 5000, 2, 0.25, true},
		{"k3-negative-cells", 3, 800, 8, 0.5, true},
		{"k8-forced-hash", 8, 2500, 6, 1e-4, false}, // tiny cells: k·bits ≫ 64
		{"k12-wide", 12, 400, 4, 0.7, true},
		{"k4-hash-parallel", 4, 4099, 40, 1e-4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proj := randomProj(rng, tc.n, tc.k, tc.span)
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					engines := coderEngines(t, proj, tc.side, workers)
					if _, packs := engines["bits"]; packs != tc.packs {
						t.Fatalf("bit packing feasible = %v, want %v", packs, tc.packs)
					}
					if _, isBits := engines["auto"].coder.(*bitsCoder); isBits != tc.packs {
						t.Fatalf("newBoxPartition chose %T", engines["auto"].coder)
					}
					if parallel := engines["auto"].locals != nil; parallel != (workers > 1 && tc.n >= minParallelPoints) {
						t.Fatalf("parallel path = %v at n %d, workers %d", parallel, tc.n, workers)
					}
					offsets := make([]float64, tc.k)
					for rep := 0; rep < 3; rep++ {
						for a := range offsets {
							offsets[a] = rng.Float64() * tc.side
						}
						for name, e := range engines {
							assertMatchesOracle(t, name, e, proj, offsets, tc.side)
						}
					}
				})
			}
		})
	}
}

// assertMatchesOracle partitions proj with the engine and checks the result
// against the string-key oracle: the max count, the grouping the engine's
// keys induce, the per-box counts, and the count table's entries — one per
// box, in first-seen order, each carrying the first row of its box.
func assertMatchesOracle(t *testing.T, name string, e *boxEngine, proj []vec.Vector, offsets []float64, side float64) {
	t.Helper()
	ref := boxHistogram(proj, offsets, side)
	refMax := 0
	for _, c := range ref {
		refMax = max(refMax, c)
	}
	if got := e.partition(offsets); got != refMax {
		t.Fatalf("%s: max count %d, oracle %d", name, got, refMax)
	}
	byEngine := make(map[uint64]string) // engine key -> oracle key
	var firsts []int                    // first row of each box, in first-seen order
	for i, k := range e.keys {
		want := boxKey(proj[i], offsets, side)
		if prev, ok := byEngine[k]; ok {
			if prev != want {
				t.Fatalf("%s: engine key %x merges oracle boxes %q and %q", name, k, prev, want)
			}
		} else {
			byEngine[k] = want
			firsts = append(firsts, i)
		}
	}
	if len(byEngine) != len(ref) {
		t.Fatalf("%s: engine has %d boxes, oracle %d", name, len(byEngine), len(ref))
	}
	if len(e.hist.entries) != len(firsts) {
		t.Fatalf("%s: count table has %d entries, %d boxes", name, len(e.hist.entries), len(firsts))
	}
	for b, en := range e.hist.entries {
		if int(en.first) != firsts[b] || en.key != e.keys[firsts[b]] {
			t.Fatalf("%s: entry %d is key %x first row %d, want key %x first row %d", name, b, en.key, en.first, e.keys[firsts[b]], firsts[b])
		}
		if want := ref[byEngine[en.key]]; en.count != want {
			t.Fatalf("%s: box of row %d: engine count %d, oracle count %d", name, en.first, en.count, want)
		}
	}
}

// FuzzBoxPartition checks the partition engine's count table against the
// string-key oracle on fuzzed projected points (little-endian int16
// coordinates scaled by 1/256, so they straddle 0), box side, offsets and
// worker count: the max, the per-box counts and the first-seen
// representatives, for the coder newBoxPartition picks and for the forced
// hash coder. With several workers the rows are tiled, each copy shifted
// along axis 0, up to the parallel threshold.
func FuzzBoxPartition(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, side, off float64, workers uint8) {
		k := 1 + int(dim%4)
		n := len(raw) / (2 * k)
		if n == 0 || n > 4096 || !(side >= 1e-3 && side <= 1e3) || !(math.Abs(off) <= 1e6) {
			t.Skip()
		}
		w := 1 + int(workers%4)
		copies := 1
		if w > 1 {
			copies = (minParallelPoints + n - 1) / n
		}
		proj := make([]vec.Vector, 0, copies*n)
		for c := 0; c < copies; c++ {
			for i := 0; i < n; i++ {
				p := make(vec.Vector, k)
				for a := range p {
					p[a] = float64(int16(binary.LittleEndian.Uint16(raw[(i*k+a)*2:]))) / 256
				}
				p[0] += float64(c) * side / 3
				proj = append(proj, p)
			}
		}
		offsets := make([]float64, k)
		for a := range offsets {
			_, frac := math.Modf(math.Abs(off) * float64(a+1))
			offsets[a] = frac * side
		}
		fr := frameOf(t, proj)
		prof := DefaultProfile()
		prof.Workers = w
		auto, err := newBoxPartition(fr, side, prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, "auto", auto.(*boxEngine), proj, offsets, side)
		assertMatchesOracle(t, "hash", newBoxEngine(fr, side, w, &hashCoder{side: side}, nil), proj, offsets, side)
	})
}

// TestAxisChoiceMatchesMapOracle pins the per-axis interval choice of
// GoodCenter steps 8–9 to the map form it replaced: on seeded rotated
// points whose interval indices straddle 0, the scratch table's sorted
// intervals fed to ChooseIndexed must release what stability.Choose
// releases from a map histogram under the same seed, and when both return
// ⊥, axisNoisyMax must pick the interval the map-keyed report-noisy-max
// picked from the same random stream.
func TestAxisChoiceMatchesMapOracle(t *testing.T) {
	const d, pLen = 3, 0.25
	released, fellBack := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 50 + rng.Intn(400)
		rot := make([]float64, m*d)
		for i := range rot {
			rot[i] = rng.NormFloat64() * 1.5
		}
		// The identity basis bins rot's rows unrotated: each row's
		// products with it are exactly its coordinates.
		rows, err := vec.FrameFromData(rot, d)
		if err != nil {
			t.Fatal(err)
		}
		identity := vec.NewMatrix(d, d)
		members := make([]int, m)
		for a := 0; a < d; a++ {
			identity.Set(a, a, 1)
		}
		for i := range members {
			members[i] = i
		}
		sc := NewQueryScratch()
		sc.binAxes(rows, members, identity, pLen)
		for axis := 0; axis < d; axis++ {
			hist := make(map[int64]int)
			for i := 0; i < m; i++ {
				hist[int64(math.Floor(rot[i*d+axis]/pLen))]++
			}
			wantKeys := slices.Sorted(maps.Keys(hist))
			if wantKeys[0] >= 0 || wantKeys[len(wantKeys)-1] < 0 {
				t.Fatalf("seed %d axis %d: intervals %v do not straddle 0", seed, axis, wantKeys)
			}
			keys, counts := sc.axisIntervals(axis)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("seed %d axis %d: intervals %v, want %v", seed, axis, keys, wantKeys)
			}
			for i, j := range keys {
				if counts[i] != hist[j] {
					t.Fatalf("seed %d axis %d: interval %d count %d, want %d", seed, axis, j, counts[i], hist[j])
				}
			}
			for _, p := range []stability.Params{
				{Epsilon: 2, Delta: 1e-3},    // releases an interval
				{Epsilon: 0.01, Delta: 1e-9}, // threshold out of reach: ⊥, then the fallback
			} {
				wantRng := rand.New(rand.NewSource(seed))
				want, err := stability.Choose(wantRng, hist, p)
				if err != nil {
					t.Fatal(err)
				}
				gotRng := rand.New(rand.NewSource(seed))
				got, err := stability.ChooseIndexed(gotRng, counts, p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Bottom != want.Bottom || !got.Bottom && (keys[got.Key] != want.Key || got.NoisyCount != want.NoisyCount) {
					t.Fatalf("seed %d axis %d: table choice %+v, map choice %+v", seed, axis, got, want)
				}
				if !want.Bottom {
					released++
					continue
				}
				scores := make([]float64, len(wantKeys))
				for i, j := range wantKeys {
					scores[i] = float64(hist[j])
				}
				idx, err := dp.ReportNoisyMax(wantRng, scores, 1, p.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				j, err := axisNoisyMax(gotRng, keys, counts, p.Epsilon)
				if err != nil {
					t.Fatal(err)
				}
				if j != wantKeys[idx] {
					t.Fatalf("seed %d axis %d: fallback picked interval %d, map oracle %d", seed, axis, j, wantKeys[idx])
				}
				fellBack++
			}
		}
	}
	if released == 0 || fellBack == 0 {
		t.Fatalf("coverage: %d stability releases, %d fallbacks", released, fellBack)
	}
}

// TestBoxPartitionAutoSelectsBits verifies newBoxPartition resolves to
// bit-packing when the indices fit one uint64 and to hashing when they
// cannot.
func TestBoxPartitionAutoSelectsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prof := DefaultProfile()

	proj := randomProj(rng, 100, 2, 1)
	part, err := newBoxPartition(frameOf(t, proj), 0.1, prof, nil) // ~12 cells/axis: packs
	if err != nil {
		t.Fatal(err)
	}
	e := part.(*boxEngine)
	if _, isBits := e.coder.(*bitsCoder); !isBits {
		t.Errorf("auto coder is %T, want *bitsCoder", e.coder)
	}

	wide := randomProj(rng, 100, 10, 4)
	part, err = newBoxPartition(frameOf(t, wide), 1e-6, prof, nil) // k·bits ≫ 64: hashes
	if err != nil {
		t.Fatal(err)
	}
	e = part.(*boxEngine)
	if _, isHash := e.coder.(*hashCoder); !isHash {
		t.Errorf("overflow coder is %T, want *hashCoder", e.coder)
	}
}

// TestBoxSelectionCanonicalAcrossBackends verifies the noise-consuming
// selection path is representation-independent: with the same seed, every
// coder releases the box the oracle's canonical enumeration releases (the
// same member set), in a packable and a hash-only projection, at any
// worker count.
func TestBoxSelectionCanonicalAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := stability.Params{Epsilon: 2, Delta: 0.01}
	for _, tc := range []struct {
		name string
		k    int
		side float64
	}{
		{"k2-packed", 2, 0.5},
		{"k8-hashed", 8, 1e-4},
	} {
		proj := randomProj(rng, 2*minParallelPoints, tc.k, 2)
		// A planted box far from the rest, so the tiny-cell case has a box
		// heavy enough to release.
		for i := 0; i < 300; i++ {
			for a := range proj[i] {
				proj[i][a] = 5
			}
		}
		offsets := make([]float64, tc.k)
		for a := range offsets {
			offsets[a] = 0.1 * tc.side * float64(a+1)
		}
		want := oracleSelect(t, rand.New(rand.NewSource(7)), p, proj, offsets, tc.side)
		if want.Bottom {
			t.Fatalf("%s: oracle selection returned bottom", tc.name)
		}
		wantKeys, wantCounts := oracleCanonical(boxHistogram(proj, offsets, tc.side))
		for _, workers := range []int{1, 3} {
			for name, e := range coderEngines(t, proj, tc.side, workers) {
				e.partition(offsets)
				order, counts := e.canonical()
				if !slices.Equal(counts, wantCounts) {
					t.Fatalf("%s %s workers %d: canonical counts differ from the oracle's", tc.name, name, workers)
				}
				for i, b := range order {
					if got := boxKey(proj[e.hist.entries[b].first], offsets, tc.side); got != wantKeys[i] {
						t.Fatalf("%s %s workers %d: canonical box %d is %v, oracle %v", tc.name, name, workers, i, boxCoords(got), boxCoords(wantKeys[i]))
					}
				}
				sel, err := e.selectBox(rand.New(rand.NewSource(7)), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sel.Members, want.Members) {
					t.Errorf("%s %s workers %d selected a different box (%d members vs %d)", tc.name, name, workers, len(sel.Members), len(want.Members))
				}
			}
		}
	}
}

// TestSelectBoxScanEdges pins the member scan's edges to oracleSelect, for
// every coder on the serial and the 3-worker path: a winner whose first
// row is mid-frame, a winner whose last member is row n−1, and a count-1
// winner (every box holds one row, and noise large enough to release one).
// Background rows sit one to a cell; the planted rows share a far box.
func TestSelectBoxScanEdges(t *testing.T) {
	const n = 2 * minParallelPoints
	heavy := stability.Params{Epsilon: 2, Delta: 0.01}
	for _, tc := range []struct {
		name        string
		side        float64
		planted     func(i int) bool
		p           stability.Params
		first, last int // the winner's first and last member, -1 if unplanted
	}{
		{"first-mid", 0.01, func(i int) bool { return i >= n/2 && i < n/2+300 }, heavy, n / 2, n/2 + 299},
		{"last-at-end", 0.01, func(i int) bool { return i >= n/3 && i%7 == 0 || i == n-1 }, heavy, n / 3, n - 1},
		{"count-1", 0.001, func(int) bool { return false }, stability.Params{Epsilon: 0.01, Delta: 0.9}, -1, -1},
	} {
		rng := rand.New(rand.NewSource(9))
		proj := randomProj(rng, n, 2, 2)
		count := 0
		for i := range proj {
			if tc.planted(i) {
				proj[i] = vec.Of(5, 5)
				count++
			}
		}
		if count == 0 {
			count = 1
		}
		offsets := []float64{0.3 * tc.side, 0.6 * tc.side}
		want := oracleSelect(t, rand.New(rand.NewSource(11)), tc.p, proj, offsets, tc.side)
		if want.Bottom || len(want.Members) != count {
			t.Fatalf("%s: oracle released %d members (bottom %v), want %d", tc.name, len(want.Members), want.Bottom, count)
		}
		if tc.first >= 0 && (want.Members[0] != tc.first || want.Members[count-1] != tc.last) {
			t.Fatalf("%s: oracle winner spans rows %d..%d, want %d..%d", tc.name, want.Members[0], want.Members[count-1], tc.first, tc.last)
		}
		for _, workers := range []int{1, 3} {
			for name, e := range coderEngines(t, proj, tc.side, workers) {
				e.partition(offsets)
				sel, err := e.selectBox(rand.New(rand.NewSource(11)), tc.p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sel, want) {
					t.Errorf("%s %s workers %d: selected %d members from row %v, oracle %d from row %d", tc.name, name, workers, len(sel.Members), sel.Members[:min(1, len(sel.Members))], len(want.Members), want.Members[0])
				}
			}
		}
	}
}

// TestGoodCenterPackingEquivalence is the seeded end-to-end pin: GoodCenter
// at several worker counts releases, bit for bit, the CenterResult the
// string-key engine released for the same seeds (recorded as literals),
// proving the coders select the same boxes all the way through the
// released center.
func TestGoodCenterPackingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name string
		d    int
		r    float64
		want CenterResult
	}{
		{"d2", 2, 0.04, CenterResult{
			Center: vec.Vector{bitsFloat(0x3fd843b83f04ff43), bitsFloat(0x3fd27b71c2e1ac38)},
			Radius: bitsFloat(0x3fd21a1851ff630b), K: 2, Repetitions: 1, BoxCount: 516,
		}},
		{"d8", 8, 0.02, CenterResult{
			Center: vec.Vector{
				bitsFloat(0x3fd2f7b05054fa42), bitsFloat(0x3fe7386d02dbaa8e),
				bitsFloat(0x3fd16ee32ca3a822), bitsFloat(0x3fd20ed1b241fd34),
				bitsFloat(0x3fe22d6d3b04fb01), bitsFloat(0x3fe4ad8a8abbd69a),
				bitsFloat(0x3fe40ba27b0ad79e), bitsFloat(0x3fe01b4de23098e2),
			},
			Radius: bitsFloat(0x3fd21a1851ff630b), K: 8, Repetitions: 1, BoxCount: 500, FallbackAxes: 1,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			grid := testGrid(t, 1024, tc.d)
			inst := plantedInstance(t, rng, grid, 700, 500, 0.02)
			for _, workers := range []int{1, 4} {
				prm := testParams(t, grid, 400)
				prm.Profile = DefaultProfile()
				if tc.d > 2 {
					// Wider boxes keep the per-axis capture probability
					// workable at d = 8 so AboveThreshold fires within
					// MaxRepetitions.
					prm.Profile.BoxSideFactor = 6
				}
				prm.Profile.Workers = workers
				res, err := GoodCenterFrame(rand.New(rand.NewSource(99)), frameOf(t, inst.Points), tc.r, prm)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				if !reflect.DeepEqual(res, tc.want) {
					t.Errorf("workers %d: result %+v, want %+v", workers, res, tc.want)
				}
			}
		})
	}
}

// bitsFloat is math.Float64frombits, for recorded exact float literals.
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// TestGoodCenterEmptyInput is the regression test for the direct-call panic:
// an empty frame must yield the ErrNoData sentinel, not index row 0.
func TestGoodCenterEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := testGrid(t, 1024, 2)
	prm := testParams(t, grid, 10)
	_, err := GoodCenterFrame(rng, nil, 0.05, prm)
	if !errors.Is(err, ErrNoData) {
		t.Errorf("empty input error = %v, want ErrNoData", err)
	}
	_, err = GoodCenterFrame(rng, vec.NewFrame(0, 2), 0.05, prm)
	if !errors.Is(err, ErrNoData) {
		t.Errorf("empty (non-nil) input error = %v, want ErrNoData", err)
	}
}

// TestBitsCoderIndexBounds verifies the packed indices stay within their
// per-axis bit fields for adversarial offset positions (the rebasing must
// absorb the ±1 cell shift an offset can cause).
func TestBitsCoderIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	proj := randomProj(rng, 400, 4, 3)
	const side = 0.21
	f := frameOf(t, proj)
	c, ok := newBitsCoder(f, side)
	if !ok {
		t.Fatal("bit packing unexpectedly infeasible")
	}
	offsets := make([]float64, 4)
	keys := make([]uint64, len(proj))
	for trial := 0; trial < 50; trial++ {
		for a := range offsets {
			offsets[a] = rng.Float64() * side
		}
		c.prepare(offsets)
		c.keys(f.Data(), offsets, keys)
		for i, p := range proj {
			key := keys[i]
			// Decode and compare against the direct floor computation.
			for a, x := range p {
				var width uint = 64
				if a+1 < len(c.shift) {
					width = c.shift[a+1] - c.shift[a]
				} else {
					width = 64 - c.shift[a]
				}
				got := int64((key >> c.shift[a]) & (uint64(1)<<width - 1))
				want := int64(math.Floor((x-offsets[a])/side)) - c.base[a]
				if got != want {
					t.Fatalf("axis %d: decoded %d, want %d (field width %d)", a, got, want, width)
				}
				if want < 0 {
					t.Fatalf("axis %d: negative rebased index %d", a, want)
				}
			}
		}
	}
}

// TestNewBoxPartitionEmpty mirrors the GoodCenter guard at the engine level.
func TestNewBoxPartitionEmpty(t *testing.T) {
	if _, err := newBoxPartition(nil, 0.5, DefaultProfile(), nil); !errors.Is(err, ErrNoData) {
		t.Errorf("empty engine error = %v, want ErrNoData", err)
	}
}

// BenchmarkBoxPartition times one serial partition pass — every row's box
// key plus its count-table add — at n = 100k, d = 2, for each coder. The
// engine, its scratch and the offsets are built before the timer, so the
// loop is the kernel alone.
func BenchmarkBoxPartition(b *testing.B) {
	const n, d, side = 100000, 2, 0.05
	rng := rand.New(rand.NewSource(8))
	f, err := vec.FrameFromVectors(randomProj(rng, n, d, 1))
	if err != nil {
		b.Fatal(err)
	}
	offsets := []float64{0.3 * side, 0.7 * side}
	bits, ok := newBitsCoder(f, side)
	if !ok {
		b.Fatal("bit packing unexpectedly infeasible")
	}
	for _, bc := range []struct {
		name  string
		coder boxCoder
	}{
		{"bits", bits},
		{"hash", &hashCoder{side: side}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := newBoxEngine(f, side, 1, bc.coder, NewQueryScratch())
			e.partition(offsets) // grow the scratch to its high-water mark
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.partition(offsets)
			}
		})
	}
}
