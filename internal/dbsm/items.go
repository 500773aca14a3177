// Package dbsm implements the Database State Machine certification
// prototype (Section 3.3): the distributed transaction termination protocol
// that multicasts a committing transaction's read-set, write-set, and
// written values, and deterministically certifies it at every replica using
// the total delivery order.
//
// Like internal/gcs, this package is "real code" in the paper's sense: its
// execution cost is accounted to the simulated CPU, and it runs unchanged on
// the native runtime bridge.
//
// # Ownership
//
// An ItemSet is immutable after construction: every operation that changes a
// set returns a new one, so a set may be shared by any number of messages,
// certifiers and servers without a copy. The certifier relies on it — a
// committed message's write-set is adopted into the history, not cloned —
// and so may callers: the write-set of a decoded message is an allocation of
// its own that anyone may retain. The read-set of a message decoded with
// UnmarshalFrom lives in the record's reused storage and is valid only until
// the next decode into the same record; nothing here keeps a read-set past
// the Certify call that reads it. ExportState still deep-copies: a snapshot
// is meant to leave the process.
package dbsm

import (
	"slices"
	"sort"
)

// TupleID identifies one tuple. The table identifier occupies the highest 16
// bits so that comparing a tuple against a whole-table lock reduces to
// comparing the high-order bits (Section 3.3).
type TupleID uint64

const (
	tableShift = 48
	rowMask    = (uint64(1) << tableShift) - 1
	// tableLockRow marks an identifier that locks an entire table.
	tableLockRow = rowMask
)

// MakeTupleID builds an identifier for a row of a table. Rows are truncated
// to 48 bits.
func MakeTupleID(table uint16, row uint64) TupleID {
	return TupleID(uint64(table)<<tableShift | (row & rowMask))
}

// MakeTableLock builds the identifier representing a lock on the whole
// table, used when a read-set is too large to ship (the table-lock
// threshold).
func MakeTableLock(table uint16) TupleID {
	return TupleID(uint64(table)<<tableShift | tableLockRow)
}

// Table extracts the table identifier.
func (id TupleID) Table() uint16 { return uint16(uint64(id) >> tableShift) }

// Row extracts the row identifier.
func (id TupleID) Row() uint64 { return uint64(id) & rowMask }

// IsTableLock reports whether id locks a whole table.
func (id TupleID) IsTableLock() bool { return uint64(id)&rowMask == tableLockRow }

// ItemSet is a sorted, duplicate-free set of tuple identifiers, immutable once
// built (see Ownership in the package comment). Keeping both sets ordered
// lets certification conclude in a single traversal (Section 3.3).
type ItemSet []TupleID

// NewItemSet builds a set from arbitrary identifiers, sorting and
// deduplicating.
func NewItemSet(ids ...TupleID) ItemSet {
	s := make(ItemSet, len(ids))
	copy(s, ids)
	slices.Sort(s)
	// Deduplicate in place.
	out := s[:0]
	for i, id := range s {
		if i == 0 || id != s[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports set membership (exact identifier, not table-lock
// semantics).
func (s ItemSet) Contains(id TupleID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Intersects reports whether the two sets conflict, in a single merged
// traversal. A table lock in either set conflicts with any identifier of the
// same table in the other (tuple or lock), implementing the paper's
// tuple-versus-table comparison via the high-order table bits. The traversal
// merges by table group; because a lock sorts after every tuple of its
// table, it is always the last element of its group, so lock conflicts are
// detected by inspecting group tails before the exact-match merge.
func (s ItemSet) Intersects(o ItemSet) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		ta, tb := s[i].Table(), o[j].Table()
		switch {
		case ta < tb:
			i++
		case tb < ta:
			j++
		default:
			ea, eb := s.groupEnd(i), o.groupEnd(j)
			if s[ea-1].IsTableLock() || o[eb-1].IsTableLock() {
				return true
			}
			for i < ea && j < eb {
				switch {
				case s[i] == o[j]:
					return true
				case s[i] < o[j]:
					i++
				default:
					j++
				}
			}
			i, j = ea, eb
		}
	}
	return false
}

// groupEnd returns the index one past the last element sharing the table of
// s[i].
func (s ItemSet) groupEnd(i int) int {
	t := s[i].Table()
	for i < len(s) && s[i].Table() == t {
		i++
	}
	return i
}

// UpgradeToTableLocks replaces per-tuple identifiers with whole-table locks
// for any table contributing more than threshold tuples, bounding the
// read-set size shipped on the network (Section 3.3). threshold <= 0 leaves
// the set unchanged.
func (s ItemSet) UpgradeToTableLocks(threshold int) ItemSet {
	if threshold <= 0 || len(s) <= threshold {
		return s
	}
	out := make(ItemSet, 0, len(s))
	i := 0
	for i < len(s) {
		j := i
		table := s[i].Table()
		for j < len(s) && s[j].Table() == table {
			j++
		}
		if j-i > threshold {
			out = append(out, MakeTableLock(table))
		} else {
			out = append(out, s[i:j]...)
		}
		i = j
	}
	return out
}

// sized returns s's storage resliced to n items, whatever they held: the same
// array while it is large enough, a new one of exactly n otherwise.
func (s ItemSet) sized(n int) ItemSet {
	if cap(s) < n {
		return make(ItemSet, n)
	}
	return s[:n]
}

// Clone returns an independent copy.
func (s ItemSet) Clone() ItemSet {
	out := make(ItemSet, len(s))
	copy(out, s)
	return out
}
