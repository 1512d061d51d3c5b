package core

import (
	"fmt"
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

// boxCoder encodes projected points' boxes into uint64 keys: keys encodes
// each row of data (flat, rows of width len(offsets)) into out. prepare
// runs once per repetition (before any concurrent keys calls) so a coder
// may derive per-repetition state from the offsets.
type boxCoder interface {
	prepare(offsets []float64)
	keys(data, offsets []float64, out []uint64)
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
	minC, maxC := proj.Bounds()
	k := len(minC)
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

func (c *bitsCoder) keys(data, offsets []float64, out []uint64) {
	k := len(offsets)
	base, shift := c.base[:k], c.shift[:k]
	for i := range out {
		var key uint64
		for a, x := range data[i*k : i*k+k] {
			idx := int64(math.Floor((x-offsets[a])/c.side)) - base[a]
			key |= uint64(idx) << shift[a]
		}
		out[i] = key
	}
}

// hashCoder mixes the per-axis cell indices into one uint64 with a
// splitmix64-style combine — the fallback when the indices cannot be
// bit-packed (k·bits > 64). Distinct cells collide with probability
// ≈ (#occupied boxes)²/2⁶⁴; a collision merges two boxes, which coarsens
// the partition by a data-independent rule and therefore costs utility,
// never privacy.
type hashCoder struct{ side float64 }

func (hashCoder) prepare([]float64) {}

func (c *hashCoder) keys(data, offsets []float64, out []uint64) {
	k := len(offsets)
	for i := range out {
		h := uint64(0x9e3779b97f4a7c15)
		for a, x := range data[i*k : i*k+k] {
			j := uint64(int64(math.Floor((x - offsets[a]) / c.side)))
			h = mix64(h ^ j)
		}
		out[i] = h
	}
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
	n, k, data := e.proj.N(), e.proj.Dim(), e.proj.Data()
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
				keys := e.keys[lo:hi]
				e.coder.keys(data[lo*k:hi*k], e.offsets, keys)
				for j, key := range keys {
					local.add(key, 1, int32(lo+j))
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
		e.coder.keys(data, e.offsets, e.keys)
		for i, key := range e.keys {
			e.hist.add(key, 1, int32(i))
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
	// The winner's count members lie from its first row on. The scan
	// writes every row and keeps it only on a key match: no data branch.
	win := e.hist.entries[order[res.Key]]
	// Grow sizes an empty buffer exactly and grows a reused one with
	// append's headroom, so pooled scratches rarely reallocate.
	members := slices.Grow(e.sc.members[:0], win.count)[:win.count]
	keys, j := e.keys, 0
	for i := int(win.first); i < len(keys) && j < len(members); i++ {
		members[j] = i
		if keys[i] == win.key {
			j++
		}
	}
	if j < len(members) {
		return boxSelection{}, fmt.Errorf("core: chosen box counted %d rows but holds %d", win.count, j)
	}
	// Keep the buffer for the next query; the returned slice stays valid
	// until then (one query per scratch at a time).
	e.sc.members = members
	return boxSelection{Members: members}, nil
}
