package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"privcluster/internal/stability"
	"privcluster/internal/vec"
)

// PackingPolicy selects how GoodCenter's box-partition engine encodes the
// per-axis cell indices of a projected point into a histogram key. The
// choice never affects which box a point lands in (the partition of R^k is
// the same shifted grid in every mode) — only the key representation, and
// with it the allocation profile of the n-point count pass that runs once
// per SVT repetition.
type PackingPolicy int

const (
	// PackAuto (the default) bit-packs the per-axis cell indices into one
	// uint64 when their combined bit budget fits, and falls back to
	// hash-combined keys beyond; cells are keyed by their integer
	// coordinates.
	PackAuto PackingPolicy = iota
	// PackBits requests bit-packing; partitions whose index ranges cannot
	// fit 64 bits fall back to hashing, exactly as PackAuto would.
	PackBits
	// PackHash forces hash-combined keys (one mixed uint64 per point).
	// Distinct cells collide with probability ≈ (#occupied boxes)²/2⁶⁴;
	// a collision merges two boxes, which coarsens the partition by a
	// data-independent rule and therefore costs utility, never privacy.
	PackHash
	// PackLegacy keeps the original allocation-heavy string keys (8·k bytes
	// built per point per repetition). Retained as the reference backend the
	// equivalence tests pin the packed engines against, and as the
	// benchmark baseline.
	PackLegacy
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
// shifted-grid histogram for one SVT repetition (reusing every buffer), and
// selectBox privately releases a heavy box of the latest partition.
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
// GOMAXPROCS; Packing selects the key encoding). sc, when non-nil, lends the
// packed engines their key/histogram buffers (the legacy string engine
// allocates its own — it exists as the allocation-heavy reference).
func newBoxPartition(proj *vec.Frame, side float64, prof Profile, sc *QueryScratch) (boxPartition, error) {
	if proj == nil || proj.N() == 0 {
		return nil, ErrNoData
	}
	workers := prof.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch prof.Packing {
	case PackLegacy:
		return newBoxEngine[string](proj, side, workers, stringCoder{side: side}, nil), nil
	case PackHash:
		return newBoxEngine[uint64](proj, side, workers, &hashCoder{side: side}, sc), nil
	case PackAuto, PackBits:
		if c, ok := newBitsCoder(proj, side); ok {
			return newBoxEngine[uint64](proj, side, workers, c, sc), nil
		}
		return newBoxEngine[uint64](proj, side, workers, &hashCoder{side: side}, sc), nil
	default:
		return nil, fmt.Errorf("core: unknown packing policy %d", prof.Packing)
	}
}

// boxCoder encodes one projected point's box into a comparable key.
// prepare runs once per repetition (before any concurrent key calls) so a
// coder may derive per-repetition state from the offsets.
type boxCoder[K comparable] interface {
	prepare(offsets []float64)
	key(p vec.Vector, offsets []float64) K
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
// bit-packed (k·bits > 64).
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

// stringCoder is the legacy 8·k-byte string encoding.
type stringCoder struct{ side float64 }

func (stringCoder) prepare([]float64) {}

func (c stringCoder) key(p vec.Vector, offsets []float64) string {
	return boxKey(p, offsets, c.side)
}

// boxEngine is the shared partition machinery, generic over the key type.
// All per-repetition state (keys, the global histogram, the per-worker
// partial histograms) is allocated once and reused across the up-to-
// MaxRepetitions SVT passes — the allocation profile the packed keys exist
// for. When a QueryScratch is attached (uint64 keys only), those buffers are
// borrowed from it instead, so repeated queries reuse them across engines.
type boxEngine[K comparable] struct {
	proj    *vec.Frame
	side    float64
	workers int
	coder   boxCoder[K]
	sc      *QueryScratch // nil unless lent by newBoxEngine

	offsets []float64   // offsets of the latest partition (for decoding)
	keys    []K         // per-point box key of the latest partition
	hist    map[K]int   // global histogram, cleared per repetition
	locals  []map[K]int // per-worker partial histograms
}

func newBoxEngine[K comparable](proj *vec.Frame, side float64, workers int, coder boxCoder[K], sc *QueryScratch) *boxEngine[K] {
	n := proj.N()
	e := &boxEngine[K]{
		proj:    proj,
		side:    side,
		workers: workers,
		coder:   coder,
		offsets: make([]float64, proj.Dim()),
	}
	if sc != nil {
		// Borrow the uint64 buffers from the scratch. The type switch is
		// resolved at instantiation; string engines fall through to fresh
		// allocations below.
		if kp, ok := any(&e.keys).(*[]uint64); ok {
			e.sc = sc
			if cap(sc.keys) < n {
				sc.keys = make([]uint64, n)
			}
			*kp = sc.keys[:n]
			if sc.hist == nil {
				sc.hist = make(map[uint64]int, 64)
			}
			*any(&e.hist).(*map[uint64]int) = sc.hist
			if workers > 1 {
				for len(sc.locals) < workers {
					sc.locals = append(sc.locals, make(map[uint64]int, 64))
				}
				*any(&e.locals).(*[]map[uint64]int) = sc.locals[:workers]
			}
		}
	}
	if e.keys == nil {
		e.keys = make([]K, n)
	}
	if e.hist == nil {
		e.hist = make(map[K]int, 64)
	}
	if workers > 1 && e.locals == nil {
		e.locals = make([]map[K]int, workers)
		for w := range e.locals {
			e.locals[w] = make(map[K]int, 64)
		}
	}
	return e
}

func (e *boxEngine[K]) partition(offsets []float64) int {
	copy(e.offsets, offsets)
	e.coder.prepare(e.offsets)
	n := e.proj.N()
	clear(e.hist)
	if e.workers > 1 && n >= minParallelPoints {
		chunk := (n + e.workers - 1) / e.workers
		var wg sync.WaitGroup
		used := 0
		for w := 0; w < e.workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			used++
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				local := e.locals[w]
				clear(local)
				for i := lo; i < hi; i++ {
					k := e.coder.key(e.proj.Row(i), e.offsets)
					e.keys[i] = k
					local[k]++
				}
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < used; w++ {
			for k, c := range e.locals[w] {
				e.hist[k] += c
			}
		}
	} else {
		for i := 0; i < n; i++ {
			k := e.coder.key(e.proj.Row(i), e.offsets)
			e.keys[i] = k
			e.hist[k]++
		}
	}
	max := 0
	for _, c := range e.hist {
		if c > max {
			max = c
		}
	}
	return max
}

func (e *boxEngine[K]) selectBox(rng *rand.Rand, p stability.Params) (boxSelection, error) {
	nb := len(e.hist)
	if nb == 0 {
		return boxSelection{Bottom: true}, nil
	}
	// One representative point per distinct box, in first-seen order.
	reps := make([]int32, 0, nb)
	pos := make(map[K]struct{}, nb)
	for i, k := range e.keys {
		if _, seen := pos[k]; !seen {
			pos[k] = struct{}{}
			reps = append(reps, int32(i))
		}
	}
	// Canonical order: the representatives' decoded cell coordinates,
	// lexicographic with axis 0 most significant. This order is a pure
	// function of the partition geometry, so every key representation
	// enumerates the boxes — and consumes the selection noise — identically.
	k := len(e.offsets)
	coords := make([]int64, len(reps)*k)
	for b, ri := range reps {
		pt := e.proj.Row(int(ri))
		for a, x := range pt {
			coords[b*k+a] = int64(math.Floor((x - e.offsets[a]) / e.side))
		}
	}
	order := make([]int, len(reps))
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
	counts := make([]int, len(order))
	for oi, b := range order {
		counts[oi] = e.hist[e.keys[reps[b]]]
	}
	res, err := stability.ChooseIndexed(rng, counts, p)
	if err != nil || res.Bottom {
		return boxSelection{Bottom: true}, err
	}
	winKey := e.keys[reps[order[res.Key]]]
	var members []int
	if e.sc != nil {
		members = e.sc.members[:0]
	} else {
		members = make([]int, 0, counts[res.Key])
	}
	for i, key := range e.keys {
		if key == winKey {
			members = append(members, i)
		}
	}
	if e.sc != nil {
		// Keep the grown buffer for the next query; the returned slice stays
		// valid until then (one query per scratch at a time).
		e.sc.members = members
	}
	return boxSelection{Members: members}, nil
}

// ---- Legacy reference implementation -----------------------------------
//
// The original string-keyed partition, kept verbatim: PackLegacy routes the
// engine through boxKey, and the equivalence tests pin every packed backend
// to boxHistogram's grouping bit-exactly.

// boxKey returns the box index of a projected point under the given shifted
// partition, encoded as a comparable string.
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

// boxHistogram counts projected points per box.
func boxHistogram(proj []vec.Vector, offsets []float64, side float64) map[string]int {
	h := make(map[string]int, len(proj))
	for _, p := range proj {
		h[boxKey(p, offsets, side)]++
	}
	return h
}
