package geometry

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"privcluster/internal/vec"
)

func mutableLocalDialer(_ context.Context, _ int, cfg ShardConfig) (MutableShardBackend, error) {
	return NewMutableLocalShard(cfg)
}

// snapshotAt pins epoch e or fails the test.
func snapshotAt(t *testing.T, m MutableBallIndex, e Epoch) BallIndex {
	t.Helper()
	snap, err := m.Snapshot(context.Background(), e)
	if err != nil {
		t.Fatalf("Snapshot(%d): %v", e, err)
	}
	return snap
}

// appendRows appends pts as one batch and returns the new epoch.
func appendRows(t *testing.T, m MutableBallIndex, pts []vec.Vector) Epoch {
	t.Helper()
	_, e, err := m.Append(context.Background(), frameOf(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// chainCounts is one level of a view's chained counts, capped at limit.
func chainCounts(t *testing.T, view *epochView, j int, limit int32) []int32 {
	t.Helper()
	out := make([]int32, view.N())
	if err := view.m.chain.counts(context.Background(), 2, view.link(), j, view.m.lad.radius(j), limit, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// freshCounts is one level of a fresh CellIndex's own count pass.
func freshCounts(t *testing.T, ref *CellIndex, j int, limit int32) []int32 {
	t.Helper()
	self := []cellGroup{{ix: ref, dups: ref.dupCount, isoSq: ref.isoSq}}
	out := make([]int32, ref.N())
	if err := crossCellCounts(context.Background(), 1, self, self, j, ref.lad.radius(j), limit, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// chainStats reads the chain counters: fills, extends, hits.
func chainStats() [3]int64 {
	return [3]int64{statChainFill.Value(), statChainExtend.Value(), statChainHit.Value()}
}

// chainScript is one seeded mutation script run in lockstep on a
// MutableCellIndex and on MutableShardedIndexes over 2 and 3 in-process
// mutable shards, with the live rows (and those of every retained epoch)
// kept alongside for fresh references.
type chainScript struct {
	t      *testing.T
	rng    *rand.Rand
	d      int
	opts   CellIndexOptions
	shard  CellIndexOptions // the shards' defaulted, ladder-pinned options
	pool   []vec.Vector
	cell   *MutableCellIndex
	shards []*MutableShardedIndex
	rows   []vec.Vector
	ids    []uint64
	nextID uint64
	at     map[Epoch][]vec.Vector // the rows of every retained epoch
	levels []int                  // the levels every check visits first
}

// newRows draws k rows: exact copies of live rows, rows with a ±0
// coordinate, and points of the clustered pool.
func (s *chainScript) newRows(k int) []vec.Vector {
	out := make([]vec.Vector, k)
	for i := range out {
		switch u := s.rng.Intn(8); {
		case u < 2:
			out[i] = s.rows[s.rng.Intn(len(s.rows))].Clone()
		case u == 2:
			p := s.pool[s.rng.Intn(len(s.pool))].Clone()
			p[s.rng.Intn(s.d)] = math.Copysign(0, float64(s.rng.Intn(2)*2-1))
			out[i] = p
		default:
			out[i] = s.pool[s.rng.Intn(len(s.pool))].Clone()
		}
	}
	return out
}

func (s *chainScript) all() []MutableBallIndex {
	out := []MutableBallIndex{s.cell}
	for _, m := range s.shards {
		out = append(out, m)
	}
	return out
}

func (s *chainScript) appendBatch(k int) Epoch {
	t := s.t
	rows := s.newRows(k)
	var e Epoch
	for _, m := range s.all() {
		e = appendRows(t, m, rows)
	}
	s.rows = append(slices.Clone(s.rows), rows...)
	for range rows {
		s.ids = append(s.ids, s.nextID)
		s.nextID++
	}
	s.at[e] = s.rows
	return e
}

func (s *chainScript) deleteSome() Epoch {
	t := s.t
	k := 1 + s.rng.Intn(len(s.rows)/10+1)
	perm := s.rng.Perm(len(s.rows))[:k]
	gone := make(map[int]bool, k)
	var ids []uint64
	for _, i := range perm {
		gone[i] = true
		ids = append(ids, s.ids[i])
	}
	var e Epoch
	for _, m := range s.all() {
		var err error
		if e, err = m.Delete(context.Background(), ids); err != nil {
			t.Fatal(err)
		}
	}
	var rows []vec.Vector
	var live []uint64
	for i, p := range s.rows {
		if !gone[i] {
			rows, live = append(rows, p), append(live, s.ids[i])
		}
	}
	s.rows, s.ids = rows, live
	s.at = map[Epoch][]vec.Vector{e: rows}
	return e
}

// check compares epoch e of every index with fresh references over its
// rows: the cell view's chained counts at the script's levels (in a fresh
// order) and its duplicate table, every BuildLStep at several t, and, at
// the current epoch, every shard's PartialCounts and DupCounts against a
// LocalShard over the same rows and members. When extend is set, e must
// extend the chain at every one of those levels without a full pass.
func (s *chainScript) check(tag string, e Epoch, extend bool) {
	t := s.t
	rows := s.at[e]
	n := len(rows)
	ref := cellIndexOf(t, rows, s.opts)
	view := snapshotAt(t, s.cell, e).(*epochView)
	if !slices.Equal(view.dup, ref.dupCount) {
		t.Fatalf("%s: duplicate table diverges from a fresh index", tag)
	}
	before := chainStats()
	order := slices.Clone(s.levels)
	s.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, j := range order {
		limit := []int32{1, int32(n / 3), int32(n), math.MaxInt32}[s.rng.Intn(4)]
		if got, want := chainCounts(t, view, j, limit), freshCounts(t, ref, j, limit); !slices.Equal(got, want) {
			t.Fatalf("%s: level %d limit %d: chained counts diverge from a fresh index", tag, j, limit)
		}
	}
	if after := chainStats(); extend && (after[0] != before[0] || after[1]-before[1] != int64(len(order))) {
		t.Fatalf("%s: append-then-query ran %d full passes and %d extensions over %d levels", tag, after[0]-before[0], after[1]-before[1], len(order))
	}
	ts := []int{1, 2 + s.rng.Intn(n-1), n}
	for _, m := range s.all() {
		assertSameSteps(t, tag, snapshotAt(t, m, e), ref, ts...)
	}
	if e != s.cell.Epoch() {
		return
	}
	for _, m := range s.shards {
		m.mu.Lock()
		shardOf := slices.Clone(m.shardOf)
		m.mu.Unlock()
		for si, be := range m.backends {
			var members []int32
			for i, sh := range shardOf {
				if int(sh) == si {
					members = append(members, int32(i))
				}
			}
			want, err := NewLocalShard(ShardConfig{Points: frameOf(t, rows), Members: members, Cell: s.shard})
			if err != nil {
				t.Fatal(err)
			}
			assertSameShard(t, fmt.Sprintf("%s S=%d shard %d", tag, len(m.backends), si), be, e, want, s.cell.lad, s.levels)
		}
	}
}

// assertSameShard compares a mutable shard at epoch e with an immutable
// one over the same rows: DupCounts, and PartialCounts at the levels given.
func assertSameShard(t *testing.T, tag string, got ShardBackend, e Epoch, want ShardBackend, lad radiusLadder, levels []int) {
	t.Helper()
	ctx := context.Background()
	gd, err1 := got.DupCounts(ctx, e)
	wd, err2 := want.DupCounts(ctx, EpochFrozen)
	if err1 != nil || err2 != nil || !slices.Equal(gd, wd) {
		t.Fatalf("%s: DupCounts diverge (%v / %v)", tag, err1, err2)
	}
	for _, j := range levels {
		r, limit := lad.radius(j), int32(len(gd))
		gc, err1 := got.PartialCounts(ctx, e, j, r, limit)
		wc, err2 := want.PartialCounts(ctx, EpochFrozen, j, r, limit)
		if err1 != nil || err2 != nil || !slices.Equal(gc, wc) {
			t.Fatalf("%s: PartialCounts at level %d diverge (%v / %v)", tag, j, err1, err2)
		}
	}
}

// TestEpochChainEquivalence runs seeded mutation scripts — appends of 1 to
// 300 rows (copies of live rows and ±0 coordinates among them), deletes,
// explicit merges and the automatic merge a large delta starts, and pins
// of older retained epochs — and after every step checks each touched
// epoch against fresh indexes over its rows (chainScript.check). Every
// append-then-query epoch must extend the chain rather than recount.
func TestEpochChainEquivalence(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		d := 1 + int(seed)%3
		t.Run(fmt.Sprintf("seed%d_d%d", seed, d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := shardTestOptions(d)
			shard := opts.withDefaults(d)
			shard.MaxRadius = ladderOf(t, shard, d, 0).maxR
			pool := shardTestPoints(t, seed, 2000, d)
			n0 := 300
			s := &chainScript{t: t, rng: rng, d: d, opts: opts, shard: shard, pool: pool,
				rows: pool[:n0], ids: make([]uint64, n0), nextID: uint64(n0), at: map[Epoch][]vec.Vector{1: pool[:n0]}}
			for i := range s.ids {
				s.ids[i] = uint64(i)
			}
			var err error
			if s.cell, err = NewMutableCellIndexFrame(frameOf(t, s.rows), opts); err != nil {
				t.Fatal(err)
			}
			defer s.cell.Close()
			for _, sh := range []int{2, 3} {
				m, err := NewMutableShardedIndexBackends(ctx, frameOf(t, s.rows), ShardedIndexOptions{Shards: sh, Cell: opts}, mutableLocalDialer)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				s.shards = append(s.shards, m)
			}
			s.levels = rng.Perm(s.cell.lad.top + 1)[:8]
			s.check("epoch 1", 1, false)
			for step := 0; step < 14; step++ {
				tag := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(8); {
				case op < 4 || step < 4: // the first steps grow the delta past the automatic merge
					s.check(tag+" append", s.appendBatch(1+rng.Intn(300)), true)
				case op == 4:
					s.check(tag+" delete", s.deleteSome(), false)
				case op == 5:
					for _, m := range s.all() {
						if err := m.Merge(ctx); err != nil {
							t.Fatal(err)
						}
					}
					s.check(tag+" merge", s.cell.Epoch(), false)
				default: // pin an older retained epoch, then append onto the head
					var old []Epoch
					for e := range s.at {
						old = append(old, e)
					}
					slices.Sort(old)
					s.check(tag+" older pin", old[rng.Intn(len(old))], false)
					s.check(tag+" append after pin", s.appendBatch(1+rng.Intn(64)), true)
				}
			}
		})
	}
}

// TestEpochChainRadiusKeyed: PartialCounts receives the level and the
// radius separately, so a chained block must never answer another radius.
// A mutable shard swept at the ladder radius of level j must, at epoch 2,
// answer (j, r′) for r′ off the ladder exactly as an immutable shard over
// the same rows does, and still answer the ladder radius after.
func TestEpochChainRadiusKeyed(t *testing.T) {
	ctx := context.Background()
	d := 2
	pts := shardTestPoints(t, 23, 600, d)
	opts := shardTestOptions(d)
	n0 := 500
	cell := opts.withDefaults(d)
	lad := ladderOf(t, cell, d, 0)
	cell.MaxRadius = lad.maxR
	s, err := NewMutableLocalShard(ShardConfig{Points: frameOf(t, pts[:n0]), Members: rowRange(0, n0), Cell: cell})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := NewLocalShard(ShardConfig{Points: frameOf(t, pts), Members: rowRange(0, len(pts)), Cell: cell})
	if err != nil {
		t.Fatal(err)
	}

	limit := int32(len(pts))
	j := lad.top / 2
	rj := lad.radius(j)
	if _, err := s.PartialCounts(ctx, 1, j, rj, limit); err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, len(pts)-n0)
	for i := range ids {
		ids[i] = uint64(n0 + i)
	}
	e2, err := s.Append(ctx, frameOf(t, pts[n0:]), rowRange(0, len(ids)), ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{3 * rj, rj / 3, rj} {
		got, err := s.PartialCounts(ctx, e2, j, r, limit)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.PartialCounts(ctx, EpochFrozen, j, r, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("level %d at r=%g (ladder %g): counts diverge from an immutable shard", j, r, rj)
		}
	}
	s.chain.mu.Lock()
	defer s.chain.mu.Unlock()
	if got := len(s.chain.blocks); got != 3 {
		t.Errorf("chain holds %d blocks for one level at three radii, want 3", got)
	}
}

// TestPairMemoConcurrentViews sweeps several epoch views from concurrent
// goroutines, so chain extensions, full passes of pins older than the head
// and hits race one another, and checks every sweep against a fresh
// index. Run it under -race.
func TestPairMemoConcurrentViews(t *testing.T) {
	ctx := context.Background()
	d := 2
	pts := shardTestPoints(t, 29, 600, d)
	opts := shardTestOptions(d)
	n0 := 480
	mutableVariants(t, pts, n0, opts, func(t *testing.T, m MutableBallIndex, sharded bool) {
		cuts := []int{n0}
		for c := n0 + 30; c <= len(pts); c += 30 {
			appendRows(t, m, pts[cuts[len(cuts)-1]:c])
			cuts = append(cuts, c)
		}
		ts := []int{2, 100, 300}
		want := make([][]*LStep, len(cuts))
		for ci, c := range cuts {
			ref := cellIndexOf(t, pts[:c], opts)
			for _, tt := range ts {
				l, err := ref.BuildLStep(ctx, tt)
				if err != nil {
					t.Fatal(err)
				}
				want[ci] = append(want[ci], l)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(cuts)*len(ts)*2)
		for rep := 0; rep < 2; rep++ {
			for ci := range cuts {
				for ti, tt := range ts {
					wg.Add(1)
					go func(ci, ti, tt int) {
						defer wg.Done()
						snap, err := m.Snapshot(ctx, Epoch(ci+1))
						if err != nil {
							errs <- err
							return
						}
						l, err := snap.BuildLStep(ctx, tt)
						if err != nil {
							errs <- err
							return
						}
						if !reflect.DeepEqual(l, want[ci][ti]) {
							errs <- fmt.Errorf("epoch %d t=%d: LStep diverged from a fresh index", ci+1, tt)
						}
					}(ci, ti, tt)
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestExtendDups checks extendDups against DupCounts over the grown
// frames, for one store (sources = members) and for distinct source and
// member frames, when the appended rows copy old rows, when old rows copy
// the appended ones, and when rows differ only by −0/+0.
func TestExtendDups(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for d := 1; d <= 3; d++ {
		for _, kind := range []string{"new copies old", "old copies new", "signed zeros"} {
			fresh := func() vec.Vector {
				p := make(vec.Vector, d)
				for a := range p {
					if kind == "signed zeros" {
						p[a] = []float64{0, math.Copysign(0, -1), 0.5}[rng.Intn(3)]
					} else {
						p[a] = float64(rng.Intn(5)) / 4
					}
				}
				return p
			}
			// Each frame is old rows then appended rows; the copied side
			// draws from the other side of both frames.
			ns, nm := 20+rng.Intn(30), 20+rng.Intn(30)
			src, mem := make([]vec.Vector, ns+1+rng.Intn(24)), make([]vec.Vector, nm+1+rng.Intn(24))
			var pool []vec.Vector
			fill := func(rows []vec.Vector, copies bool) {
				for i := range rows {
					if copies && len(pool) > 0 && rng.Intn(4) > 0 {
						rows[i] = pool[rng.Intn(len(pool))].Clone()
					} else {
						rows[i] = fresh()
					}
				}
			}
			first, second := [][]vec.Vector{src[:ns], mem[:nm]}, [][]vec.Vector{src[ns:], mem[nm:]}
			if kind == "old copies new" {
				first, second = second, first
			}
			for _, rows := range first {
				fill(rows, false)
				pool = append(pool, rows...)
			}
			for _, rows := range second {
				fill(rows, kind != "signed zeros")
			}
			sf := frameOf(t, src)
			for _, m := range []struct {
				f   *vec.Frame
				old int
			}{{sf, ns}, {frameOf(t, mem), nm}} {
				prev := DupCounts(sf.Gather(rowRange(0, ns)), m.f.Gather(rowRange(0, m.old)), nil)
				if got, want := extendDups(prev, sf, m.f, ns, m.old), DupCounts(sf, m.f, nil); !slices.Equal(got, want) {
					t.Fatalf("d=%d %s (%d/%d source rows, %d/%d members): extendDups %v, DupCounts %v",
						d, kind, ns, sf.N(), m.old, m.f.N(), got, want)
				}
			}
		}
	}
}

// FuzzEpochChain runs a fuzzed mutation script on a small mutable index
// (n ≤ 64, d ≤ 3; coordinates on a 1/16 lattice, so duplicates are common,
// with −0 among them) and, after every step, compares the chained counts at
// every ladder level and the duplicate table with a fresh CellIndex.
// Script bytes: the first picks d, then each op byte is followed by its
// argument: 0 appends 1–8 rows (d coordinate bytes each), 1 deletes the
// row the argument names, 2 merges, 3 pins an epoch up to 3 back.
func FuzzEpochChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		d := 1 + int(script[0])%3
		script = script[1:]
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		row := func() vec.Vector {
			p := make(vec.Vector, d)
			for a := range p {
				b := next()
				p[a] = float64(b%17) / 16
				if b == 255 {
					p[a] = math.Copysign(0, -1)
				}
			}
			return p
		}
		opts := CellIndexOptions{MinRadius: 1.0 / 256}
		rows := []vec.Vector{row(), row()}
		m, err := NewMutableCellIndexFrame(frameOf(t, rows), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		at := map[Epoch][]vec.Vector{1: rows}
		check := func(e Epoch) {
			ref := cellIndexOf(t, at[e], opts)
			view := snapshotAt(t, m, e).(*epochView)
			if !slices.Equal(view.dup, ref.dupCount) {
				t.Fatalf("epoch %d: duplicate table diverges from a fresh index", e)
			}
			limit := int32(len(at[e]))
			for j := 0; j <= ref.lad.top; j++ {
				if !slices.Equal(chainCounts(t, view, j, limit), freshCounts(t, ref, j, limit)) {
					t.Fatalf("epoch %d level %d: chained counts diverge from a fresh index", e, j)
				}
			}
		}
		check(1)
		for steps := 0; len(script) > 0 && steps < 16; steps++ {
			e := m.Epoch()
			switch next() % 4 {
			case 0:
				k := 1 + next()%8
				if len(rows)+k > 64 {
					continue
				}
				batch := make([]vec.Vector, k)
				for i := range batch {
					batch[i] = row()
				}
				e = appendRows(t, m, batch)
				rows = append(slices.Clone(rows), batch...)
				at[e] = rows
			case 1:
				i := next() % len(rows)
				if len(rows) == 1 {
					continue
				}
				m.mu.Lock()
				id := m.log.stores[0].ids[i]
				m.mu.Unlock()
				if e, err = m.Delete(context.Background(), []uint64{id}); err != nil {
					t.Fatal(err)
				}
				rows = append(slices.Clone(rows[:i]), rows[i+1:]...)
				at = map[Epoch][]vec.Vector{e: rows}
			case 2:
				if err := m.Merge(context.Background()); err != nil {
					t.Fatal(err)
				}
			case 3:
				if old := e - Epoch(next()%4); at[old] != nil {
					e = old
				}
			}
			check(e)
		}
	})
}

// warmChainSensitivity builds f as epoch 2 of a mutable index: its last
// five rows are appended onto a base over the rest, whose epoch-1 view was
// swept first at t = n_base. The compared sweep then extends every block
// the first sweep reached through the chain.
func warmChainSensitivity(sharded bool) func(t *testing.T, f *vec.Frame) BallIndex {
	return func(t *testing.T, f *vec.Frame) BallIndex {
		ctx := context.Background()
		rows := make([]vec.Vector, f.N())
		for i := range rows {
			rows[i] = f.Row(i)
		}
		n0 := len(rows) - 5
		var m MutableBallIndex
		var err error
		if sharded {
			m, err = NewMutableShardedIndexBackends(ctx, frameOf(t, rows[:n0]), ShardedIndexOptions{
				Shards: 2, Cell: sensitivityCellOpts,
			}, mutableLocalDialer)
		} else {
			m, err = NewMutableCellIndexFrame(frameOf(t, rows[:n0]), sensitivityCellOpts)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if _, err := snapshotAt(t, m, m.Epoch()).BuildLStep(ctx, n0); err != nil {
			t.Fatal(err)
		}
		return snapshotAt(t, m, appendRows(t, m, rows[n0:]))
	}
}
