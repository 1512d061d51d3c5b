package geometry

import (
	"context"
	"maps"

	"privcluster/internal/vec"
)

// ChainExtension is one epoch-chain extension made repeatable for
// BenchmarkChainExtend: a mutable index whose head is epoch 1, swept at
// ladder levels [0, levels), and whose epoch 2 appends a batch.
type ChainExtension struct {
	m          *MutableCellIndex
	head, next *epochView
	dup        []int32
	blocks     map[[2]uint64][]int32
	levels     int
	limit      int32
	out        []int32
}

// NewChainExtension builds the index over base, sweeps epoch 1 at every
// level uncapped and appends batch as epoch 2, whose view is built before
// the chain first extends to it. Call Reset before every Run.
func NewChainExtension(base, batch *vec.Frame, opts CellIndexOptions, levels int, limit int32) (*ChainExtension, error) {
	m, err := NewMutableCellIndexFrame(base, opts)
	if err != nil {
		return nil, err
	}
	x := &ChainExtension{m: m, levels: levels, limit: limit, out: make([]int32, base.N()+batch.N())}
	if x.head, err = m.view(context.Background(), 1); err != nil {
		return nil, err
	}
	for j := 0; j < levels; j++ {
		if err := m.chain.counts(context.Background(), m.opts.Workers, x.head.link(), j, m.lad.radius(j), limit, x.out[:base.N()]); err != nil {
			return nil, err
		}
		clear(x.out)
	}
	x.dup, x.blocks = m.chain.dup, maps.Clone(m.chain.blocks)
	if _, _, err := m.Append(context.Background(), batch); err != nil {
		return nil, err
	}
	x.next, err = m.view(context.Background(), 2)
	return x, err
}

// Reset moves the chain's head back to epoch 1, with copies of its blocks
// that keep room for n/8 more rows, as an extended block does.
func (x *ChainExtension) Reset() {
	c := &x.m.chain
	c.mu.Lock()
	defer c.mu.Unlock()
	n := x.head.N()
	c.head, c.dup, c.blocks = x.head.link(), x.dup, make(map[[2]uint64][]int32, len(x.blocks))
	c.prev, c.prevMem, c.fs, c.fm = nil, nil, nil, nil
	for k, blk := range x.blocks {
		c.blocks[k] = append(make([]int32, 0, n+n/8), blk...)
	}
}

// Run extends the chain from epoch 1 to epoch 2: the duplicate table, then
// both passes at every level.
func (x *ChainExtension) Run() error {
	m, link := x.m, x.next.link()
	if _, err := m.chain.dups(link); err != nil {
		return err
	}
	for j := 0; j < x.levels; j++ {
		clear(x.out)
		if err := m.chain.counts(context.Background(), m.opts.Workers, link, j, m.lad.radius(j), x.limit, x.out); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the index.
func (x *ChainExtension) Close() error { return x.m.Close() }
