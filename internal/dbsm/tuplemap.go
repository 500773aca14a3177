package dbsm

import "math/bits"

// TupleMap is a hash table from TupleID to V, open-addressed: linear probing
// over a power-of-two array of cells, homed by a multiplicative hash. The zero
// V marks an empty cell, so a key mapped to the zero V is a key with no cell:
// Get answers the zero V for it and Put of the zero V deletes. Deletion
// shifts the cells after the hole back towards their homes, so the table
// needs no tombstones and a probe never runs longer than the cells present
// make it. Clear keeps the array, and so a table that has reached its working
// size allocates nothing more. Nothing ranges over a TupleMap: it has no
// iteration order to keep deterministic.
//
// The zero TupleMap is empty and ready to use.
type TupleMap[V comparable] struct {
	cells []tupleCell[V]
	n     int
	shift uint8 // 64 - log2(len(cells)): the hash keeps the product's top bits
}

type tupleCell[V comparable] struct {
	k TupleID
	v V
}

// tupleMapMin is the number of cells a table starts with.
const tupleMapMin = 16

// tupleHash is the multiplier of the hash: 2^64 divided by the golden ratio,
// which spreads consecutive rows, and tuples of different tables with the
// same row, over the whole array.
const tupleHash = 0x9e3779b97f4a7c15

// home is the cell where a probe for k starts.
func (m *TupleMap[V]) home(k TupleID) int {
	return int((uint64(k) * tupleHash) >> m.shift)
}

// Len reports the keys that have a cell.
func (m *TupleMap[V]) Len() int { return m.n }

// Get returns the value of k, or the zero V when k has no cell.
func (m *TupleMap[V]) Get(k TupleID) V {
	var zero V
	if m.n == 0 {
		return zero
	}
	mask := len(m.cells) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		c := &m.cells[i]
		if c.k == k || c.v == zero {
			return c.v
		}
	}
}

// Put maps k to v; the zero v deletes k.
func (m *TupleMap[V]) Put(k TupleID, v V) {
	var zero V
	if v == zero {
		m.Delete(k)
		return
	}
	// Grow at half full: a probe for a key with no cell, which the
	// certifier makes for most of what it reads, runs to the next empty
	// cell, and those runs lengthen quickly past half.
	if 2*(m.n+1) > len(m.cells) {
		m.grow()
	}
	mask := len(m.cells) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		c := &m.cells[i]
		if c.v == zero {
			*c = tupleCell[V]{k, v}
			m.n++
			return
		}
		if c.k == k {
			c.v = v
			return
		}
	}
}

// Delete removes k's cell, if it has one.
func (m *TupleMap[V]) Delete(k TupleID) {
	var zero V
	if m.n == 0 {
		return
	}
	mask := len(m.cells) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		c := &m.cells[i]
		if c.v == zero {
			return
		}
		if c.k == k {
			m.del(i)
			return
		}
	}
}

// del empties cell i and closes the hole: each later cell of the probe run
// whose home is not cyclically in (hole, cell] — that is, whose probe passes
// the hole — moves back into the hole, which moves to where it was.
func (m *TupleMap[V]) del(i int) {
	var zero V
	mask := len(m.cells) - 1
	for j := (i + 1) & mask; m.cells[j].v != zero; j = (j + 1) & mask {
		if (j-m.home(m.cells[j].k))&mask >= (j-i)&mask {
			m.cells[i] = m.cells[j]
			i = j
		}
	}
	m.cells[i] = tupleCell[V]{}
	m.n--
}

// grow doubles the array (or makes the first one) and re-homes every cell.
func (m *TupleMap[V]) grow() {
	old := m.cells
	size := max(2*len(old), tupleMapMin)
	m.cells = make([]tupleCell[V], size)
	m.shift = uint8(65 - bits.Len(uint(size)))
	m.n = 0
	var zero V
	for _, c := range old {
		if c.v != zero {
			m.Put(c.k, c.v)
		}
	}
}

// Clear removes every cell and keeps the array.
func (m *TupleMap[V]) Clear() {
	clear(m.cells)
	m.n = 0
}
