package core

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"privcluster/internal/stability"
	"privcluster/internal/vec"
)

// minParallelPoints is the smallest input for which the per-repetition
// count pass fans out over the worker pool; below it goroutine overhead
// dominates the O(n·k) key computation.
const minParallelPoints = 2048

// boxSelection is the outcome of boxPartition.selectBox.
type boxSelection struct {
	// Members are the indices (into the projected point slice) of the
	// points mapped to the chosen box.
	Members []int
	// Bottom is true when the stability choice released no box.
	Bottom bool
}

// boxPartition is GoodCenter's partition engine: partition recounts the
// shifted-grid histogram for one SVT repetition into a reused count table
// (one table add per point), and selectBox privately releases a heavy box
// of the latest partition, reading the boxes' first rows and counts
// straight from the table.
type boxPartition interface {
	// partition assigns every projected point to its box under the given
	// per-axis offsets and returns the maximum box count — the only value
	// AboveThreshold ever sees, which is why the count pass may fan out
	// over worker goroutines without touching the privacy analysis.
	partition(offsets []float64) int
	// selectBox runs the stability-based choice over the latest partition's
	// histogram, enumerating boxes in canonical cell-coordinate order so
	// the released box is independent of the key representation.
	selectBox(rng *rand.Rand, p stability.Params) (boxSelection, error)
}

// newBoxPartition builds the engine for the given projected points (a flat
// frame, float64), box side, and profile (Workers bounds the pool, 0 =
// GOMAXPROCS). Keys are bit-packed when the data's bit budget fits one
// uint64 and hash-combined otherwise; either way every point lands in the
// same box of the same shifted grid, so the choice never changes a
// release. sc, when non-nil, lends the engine its keys and count tables.
func newBoxPartition(proj *vec.Frame, side float64, prof Profile, sc *QueryScratch) (boxPartition, error) {
	if proj == nil || proj.N() == 0 {
		return nil, ErrNoData
	}
	workers := prof.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c, ok := newBitsCoder(proj, side); ok {
		return newBoxEngine(proj, side, workers, c, sc), nil
	}
	return newBoxEngine(proj, side, workers, &hashCoder{side: side}, sc), nil
}

// boxCoder encodes one projected point's box into a uint64 key.
// prepare runs once per repetition (before any concurrent key calls) so a
// coder may derive per-repetition state from the offsets.
type boxCoder interface {
	prepare(offsets []float64)
	key(p vec.Vector, offsets []float64) uint64
}

// bitsCoder packs the per-axis cell indices into disjoint bit fields of one
// uint64. Feasibility is decided once from the data's per-axis bounding box:
// the index of axis a, rebased to the axis minimum, needs
// ⌈log₂(span_a/side + 2)⌉ bits for every possible offset shift.
type bitsCoder struct {
	side  float64
	minC  []float64
	shift []uint
	base  []int64 // per-repetition rebase, set by prepare
}

func newBitsCoder(proj *vec.Frame, side float64) (*bitsCoder, bool) {
	k := proj.Dim()
	minC := make([]float64, k)
	maxC := make([]float64, k)
	copy(minC, proj.Row(0))
	copy(maxC, proj.Row(0))
	for i := 1; i < proj.N(); i++ {
		for a, x := range proj.Row(i) {
			if x < minC[a] {
				minC[a] = x
			}
			if x > maxC[a] {
				maxC[a] = x
			}
		}
	}
	shift := make([]uint, k)
	var total uint
	for a := 0; a < k; a++ {
		cells := math.Floor((maxC[a]-minC[a])/side) + 2
		if !(cells < float64(uint64(1)<<62)) { // NaN/Inf-safe overflow guard
			return nil, false
		}
		b := uint(bits.Len64(uint64(cells) - 1))
		if b == 0 {
			b = 1
		}
		shift[a] = total
		total += b
		if total > 64 {
			return nil, false
		}
	}
	return &bitsCoder{side: side, minC: minC, shift: shift, base: make([]int64, k)}, true
}

func (c *bitsCoder) prepare(offsets []float64) {
	for a := range c.base {
		c.base[a] = int64(math.Floor((c.minC[a] - offsets[a]) / c.side))
	}
}

func (c *bitsCoder) key(p vec.Vector, offsets []float64) uint64 {
	var key uint64
	for a, x := range p {
		idx := int64(math.Floor((x-offsets[a])/c.side)) - c.base[a]
		key |= uint64(idx) << c.shift[a]
	}
	return key
}

// hashCoder mixes the per-axis cell indices into one uint64 with a
// splitmix64-style combine — the fallback when the indices cannot be
// bit-packed (k·bits > 64). Distinct cells collide with probability
// ≈ (#occupied boxes)²/2⁶⁴; a collision merges two boxes, which coarsens
// the partition by a data-independent rule and therefore costs utility,
// never privacy.
type hashCoder struct{ side float64 }

func (hashCoder) prepare([]float64) {}

func (c *hashCoder) key(p vec.Vector, offsets []float64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for a, x := range p {
		j := uint64(int64(math.Floor((x - offsets[a]) / c.side)))
		h = mix64(h ^ j)
	}
	return h
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// boxEngine is the shared partition machinery. All per-repetition state
// (keys, the global count table, the per-worker partial tables) is reset,
// not reallocated, across the up-to-MaxRepetitions SVT passes. The buffers
// live in a QueryScratch: the caller's when one is lent, so repeated
// queries reuse them across engines, else a fresh one.
type boxEngine struct {
	proj  *vec.Frame
	side  float64
	coder boxCoder
	sc    *QueryScratch

	offsets []float64    // offsets of the latest partition (for decoding)
	keys    []uint64     // per-point box key of the latest partition
	hist    *countTable  // box counts and first rows of the latest partition
	locals  []countTable // per-worker partial tables
	chunk   int          // rows per worker on the parallel path
}

func newBoxEngine(proj *vec.Frame, side float64, workers int, coder boxCoder, sc *QueryScratch) *boxEngine {
	if sc == nil {
		sc = NewQueryScratch()
	}
	n := proj.N()
	e := &boxEngine{
		proj:    proj,
		side:    side,
		coder:   coder,
		sc:      sc,
		offsets: make([]float64, proj.Dim()),
		hist:    &sc.hist,
	}
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	e.keys = sc.keys[:n]
	if workers > 1 && n >= minParallelPoints {
		e.chunk = (n + workers - 1) / workers
		for len(sc.locals) < workers {
			sc.locals = append(sc.locals, countTable{})
		}
		e.locals = sc.locals[:workers]
	}
	return e
}

func (e *boxEngine) partition(offsets []float64) int {
	copy(e.offsets, offsets)
	e.coder.prepare(e.offsets)
	n := e.proj.N()
	e.hist.reset()
	if e.locals != nil {
		var wg sync.WaitGroup
		used := 0
		for lo := 0; lo < n; lo += e.chunk {
			hi := min(lo+e.chunk, n)
			local := &e.locals[used]
			used++
			wg.Add(1)
			go func() {
				defer wg.Done()
				local.reset()
				for i := lo; i < hi; i++ {
					k := e.coder.key(e.proj.Row(i), e.offsets)
					e.keys[i] = k
					local.add(k, 1, int32(i))
				}
			}()
		}
		wg.Wait()
		// Merging in worker (= row) order keeps the serial pass's
		// first-seen order and first rows.
		for _, local := range e.locals[:used] {
			for _, en := range local.entries {
				e.hist.add(en.key, en.count, en.first)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			k := e.coder.key(e.proj.Row(i), e.offsets)
			e.keys[i] = k
			e.hist.add(k, 1, int32(i))
		}
	}
	top := 0
	for _, en := range e.hist.entries {
		top = max(top, en.count)
	}
	return top
}

// canonical returns the latest partition's boxes as indices into
// hist.entries, with their counts, in canonical order: the first rows'
// decoded cell coordinates, lexicographic with axis 0 most significant.
// This order is a pure function of the partition geometry, so every key
// representation enumerates the boxes — and consumes the selection noise —
// identically.
func (e *boxEngine) canonical() (order, counts []int) {
	boxes := e.hist.entries
	k := len(e.offsets)
	coords := make([]int64, len(boxes)*k)
	for b, en := range boxes {
		pt := e.proj.Row(int(en.first))
		for a, x := range pt {
			coords[b*k+a] = int64(math.Floor((x - e.offsets[a]) / e.side))
		}
	}
	order = make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		cx := coords[order[x]*k : order[x]*k+k]
		cy := coords[order[y]*k : order[y]*k+k]
		for a := 0; a < k; a++ {
			if cx[a] != cy[a] {
				return cx[a] < cy[a]
			}
		}
		return false
	})
	counts = make([]int, len(order))
	for oi, b := range order {
		counts[oi] = boxes[b].count
	}
	return order, counts
}

func (e *boxEngine) selectBox(rng *rand.Rand, p stability.Params) (boxSelection, error) {
	if len(e.hist.entries) == 0 {
		return boxSelection{Bottom: true}, nil
	}
	order, counts := e.canonical()
	res, err := stability.ChooseIndexed(rng, counts, p)
	if err != nil || res.Bottom {
		return boxSelection{Bottom: true}, err
	}
	winKey := e.hist.entries[order[res.Key]].key
	// Grow sizes an empty buffer exactly and grows a reused one with
	// append's headroom, so pooled scratches rarely reallocate.
	members := slices.Grow(e.sc.members[:0], counts[res.Key])
	for i, key := range e.keys {
		if key == winKey {
			members = append(members, i)
		}
	}
	// Keep the buffer for the next query; the returned slice stays valid
	// until then (one query per scratch at a time).
	e.sc.members = members
	return boxSelection{Members: members}, nil
}
