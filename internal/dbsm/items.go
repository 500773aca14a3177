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
// An operation on a set returns a new one rather than change it, but a set
// may live in storage its owner reuses: both sets of a message decoded with
// UnmarshalFrom, until the next decode into the same record, and a set
// AppendItemSet built into an array its owner reuses, such as a db.Txn's once
// the server lets go of the transaction. Every set handed over is therefore
// read, encoded, split or copied, never kept: whoever keeps one past the call
// that hands it over copies it into storage of its own. The certifier's
// history copies a committed write-set into an Arena it recycles, the
// cross-group round in internal/replica copies the parts it keeps into an
// Arena of its own, and ExportState deep-copies, since a snapshot is meant
// to leave the process.
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

// ItemSet is a sorted, duplicate-free set of tuple identifiers; how long one
// lives depends on whose storage it is in (see Ownership in the package
// comment). Keeping both sets ordered lets certification conclude in a single
// traversal (Section 3.3).
type ItemSet []TupleID

// NewItemSet builds a set from arbitrary identifiers, sorting and
// deduplicating.
func NewItemSet(ids ...TupleID) ItemSet {
	return AppendItemSet(make(ItemSet, 0, len(ids)), ids...)
}

// AppendItemSet appends ids to dst and returns the whole, sorted and
// deduplicated, in dst's array while it is large enough. It is the one
// constructor that writes into storage the caller already had: whoever owns
// dst's array owns the result, and must not hand it to a reader that keeps it
// past the array's next reuse.
func AppendItemSet(dst ItemSet, ids ...TupleID) ItemSet {
	s := append(dst, ids...)
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
