package geometry

import (
	"context"
	"math"
	"sync"

	"privcluster/internal/obs"
)

// Epoch-chain block lookups by result (see epochChain.counts).
var (
	statChainFill   = chainCounter("fill")   // full uncapped passes stored at the head
	statChainExtend = chainCounter("extend") // blocks carried over from the previous head
	statChainHit    = chainCounter("hit")    // passes answered from a stored block
)

func chainCounter(result string) *obs.Counter {
	return obs.Default.Counter("privcluster_epoch_chain_total",
		"Epoch-chain count block lookups by result (hit = block reused).", "result", result)
}

// chainLink is one epoch of an epochChain: its source and member store
// views. A MutableCellIndex counts its rows against themselves (src ==
// mem); a MutableLocalShard counts its owned rows against all rows.
type chainLink struct {
	epoch    Epoch
	src, mem *storeView
}

// epochChain keeps, for the newest epoch a mutable index has served (the
// head), the uncapped count block of every ladder level swept there and the
// epoch's duplicate table. Appends only extend a buffer's row prefix, so a
// newer epoch E′ on the same buffers extends the head E's blocks: E's
// block, grown in place, plus two uncapped passes, every source of E′
// against the member rows F_m appended since E and the sources F_s appended
// since E against E's members, counts every pair of E′ once; the first pass
// runs from F_m's rows (extendCounts), so it costs what the batch reaches.
// The duplicate table extends the same way (extendDups). Saturating sums of
// nonnegative integers are order-independent, so min(block, t) is bit for
// bit a fresh pass's count, and blocks are partition-independent, so merges
// keep the chain. A full uncapped pass runs after a delete (new buffers)
// and at a level the head never swept; a pin older than the head runs a
// capped pass and stores nothing. The chain holds one epoch's blocks (grown
// blocks keep room for n/8 more rows) plus the previous head's not yet
// extended; passes that touch blocks run under its lock.
type epochChain struct {
	opts CellIndexOptions // ladder-pinned options for the appended-row indexes

	mu     sync.Mutex
	head   chainLink
	dup    []int32
	blocks map[[2]uint64][]int32 // by level and radius bits: PartialCounts passes both
	// prev holds the previous head's blocks not yet extended, prevMem its
	// member groups, and fs, fm the rows appended since it (nil if none).
	prev            map[[2]uint64][]int32
	prevMem, fs, fm []cellGroup
}

// dups returns link's duplicate table (shared, read-only), advancing the
// head to link when it is newer.
func (c *epochChain) dups(link chainLink) ([]int32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if link.epoch < c.head.epoch {
		return DupCounts(link.src.frame, link.mem.frame, nil), nil
	}
	err := c.advance(link)
	return c.dup, err
}

// counts fills out, zeroed and one slot per source row, with link's
// counts at level j and radius r capped at limit (see crossCellCounts).
func (c *epochChain) counts(ctx context.Context, workers int, link chainLink, j int, r float64, limit int32, out []int32) error {
	c.mu.Lock()
	if link.epoch < c.head.epoch {
		c.mu.Unlock()
		return crossCellCounts(ctx, workers, link.src.groups, link.mem.groups, j, r, limit, out)
	}
	defer c.mu.Unlock()
	if err := c.advance(link); err != nil {
		return err
	}
	k := [2]uint64{uint64(j), math.Float64bits(r)}
	blk, old := c.blocks[k], c.prev[k]
	var err error
	switch {
	case blk != nil:
		statChainHit.Inc()
	case old != nil:
		statChainExtend.Inc()
		delete(c.prev, k) // extended in place, with room for later batches
		if n := link.src.nView; cap(old) < n {
			old = append(make([]int32, 0, n+n/8), old...)
		}
		blk = old[:link.src.nView]
		if err = extendCounts(ctx, link.src.groups, c.fm, j, r, math.MaxInt32, blk); err == nil {
			err = crossCellCounts(ctx, workers, c.fs, c.prevMem, j, r, math.MaxInt32, blk)
		}
	default:
		statChainFill.Inc()
		blk = make([]int32, link.src.nView)
		err = crossCellCounts(ctx, workers, link.src.groups, link.mem.groups, j, r, math.MaxInt32, blk)
	}
	if err != nil {
		return err // a partial block is never stored
	}
	c.blocks[k] = blk
	for i, c := range blk {
		out[i] = min(c, limit)
	}
	return nil
}

// advance moves the head to link if link is newer, carrying the head's
// blocks and duplicate table over when link extends its buffers.
func (c *epochChain) advance(link chainLink) error {
	h := c.head
	if link.epoch <= h.epoch {
		return nil
	}
	c.prev, c.prevMem, c.fs, c.fm = nil, nil, nil, nil
	if h.src == nil || h.src.buf != link.src.buf || h.mem.buf != link.mem.buf {
		c.dup = DupCounts(link.src.frame, link.mem.frame, nil)
	} else {
		var err error
		if c.fs, err = c.appended(h.src, link.src); err != nil {
			return err
		}
		if c.fm = c.fs; h.mem != h.src {
			if c.fm, err = c.appended(h.mem, link.mem); err != nil {
				return err
			}
		}
		c.prev, c.prevMem = c.blocks, h.mem.groups
		c.dup = extendDups(c.dup, link.src.frame, link.mem.frame, h.src.nView, h.mem.nView)
	}
	c.head, c.blocks = link, make(map[[2]uint64][]int32)
	return nil
}

// appended indexes ev's rows beyond old's as one group mapped to their row
// numbers (nil when there are none).
func (c *epochChain) appended(old, ev *storeView) ([]cellGroup, error) {
	if ev.nView == old.nView {
		return nil, nil
	}
	ix, err := NewCellIndexFrame(ev.buf.Slice(old.nView, ev.nView), c.opts)
	return []cellGroup{{ix: ix, gids: rowRange(old.nView, ev.nView)}}, err
}
