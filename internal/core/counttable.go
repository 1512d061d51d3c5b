package core

import (
	"math/bits"
	"slices"
)

// minTableSlots is a count table's first slot-array size: room for 32
// keys, more than a box partition usually occupies.
const minTableSlots = 64

// countTable is GoodCenter's histogram: an open-addressing table from
// uint64 keys to counts, with linear probing over a power-of-two slot
// array kept at most half full. Each entry also records the first row that
// carried its key, and entries are kept in first-seen order, so a pass
// over the table visits the occupied bins exactly as a pass over the rows
// first meets them. Unlike a Go map, a reset table keeps its memory, so a
// reused table allocates nothing once it has reached its high-water mark.
type countTable struct {
	slots   []int32 // 1 + index into entries; 0 marks an empty slot
	shift   uint    // 64 − log₂(len(slots)), for Fibonacci hashing
	entries []countEntry
}

// countEntry is one occupied bin of a countTable.
type countEntry struct {
	key   uint64
	count int
	first int32 // the first row that carried key
}

// reset empties the table, keeping its memory.
func (t *countTable) reset() {
	clear(t.slots)
	t.entries = t.entries[:0]
}

// add counts c more occurrences of key, first carried by row when the key
// is new.
func (t *countTable) add(key uint64, c int, row int32) {
	if 2*len(t.entries) >= len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.entries = append(t.entries, countEntry{key: key, count: c, first: row})
			t.slots[i] = int32(len(t.entries))
			return
		}
		if e := &t.entries[s-1]; e.key == key {
			e.count += c
			return
		}
	}
}

// grow doubles the slot array and re-seats every entry, growing the entry
// slice alongside so that it, too, allocates once per doubling.
func (t *countTable) grow() {
	size := max(2*len(t.slots), minTableSlots)
	t.slots = make([]int32, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.entries = slices.Grow(t.entries, size/2-len(t.entries))
	mask := uint64(size - 1)
	for e, en := range t.entries {
		i := (en.key * 0x9e3779b97f4a7c15) >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(e + 1)
	}
}
