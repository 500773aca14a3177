package gcs

import "iter"

// seqWindowCap bounds the span of live keys a seqRing may hold, and how far
// past its cursor a sequence number from the wire may reach. Flow control
// keeps every legitimate window far below it: at most sendWindow (256) chunks
// of a stream are unstable, and the sequencer assigns at most assignWindow
// (1 024) globals past its delivery. A key that would reach past it can only
// come from a corrupt or hostile peer; the stack drops it and counts a parse
// error, so a ring never spans more than the cap.
const seqWindowCap = 1 << 14

// seqRingMin is the number of slots a ring allocates at its first put.
const seqRingMin = 64

// seqRing maps a window of sequence numbers to values: a power-of-two array
// indexed by seq & mask, with the live keys inside [lo, hi]. The three
// windows of the stack are rings — a stream's unstable chunks at its sender
// and at every receiver, and the assigned-but-undelivered globals — because
// each is a run of consecutive numbers that grows at the top and is released
// from the bottom. A ring that empties rebases at its next put, a put that
// widens the span past the array doubles it, and a put that would widen it
// past seqWindowCap is refused. Once a ring has reached its working size,
// put, get and del allocate nothing.
//
// The zero seqRing is empty and ready to use.
type seqRing[V any] struct {
	slots []seqSlot[V]
	lo    uint64 // smallest live key; meaningless while n == 0
	hi    uint64 // largest live key; meaningless while n == 0
	n     int
}

type seqSlot[V any] struct {
	v  V
	ok bool
}

// get returns the value of k and whether k is live.
func (r *seqRing[V]) get(k uint64) (V, bool) {
	if r.n == 0 || k < r.lo || k > r.hi {
		var zero V
		return zero, false
	}
	s := &r.slots[k&uint64(len(r.slots)-1)]
	return s.v, s.ok
}

// put maps k to v and reports whether it did: a key that would widen the
// span of live keys past seqWindowCap is refused and leaves the ring as it
// was.
func (r *seqRing[V]) put(k uint64, v V) bool {
	if r.n == 0 {
		if r.slots == nil {
			r.slots = make([]seqSlot[V], seqRingMin)
		}
		r.lo, r.hi = k, k
	} else {
		lo, hi := min(r.lo, k), max(r.hi, k)
		if hi-lo >= seqWindowCap {
			return false
		}
		if hi-lo >= uint64(len(r.slots)) {
			r.grow(hi - lo + 1)
		}
		r.lo, r.hi = lo, hi
	}
	s := &r.slots[k&uint64(len(r.slots)-1)]
	if !s.ok {
		r.n++
	}
	s.v, s.ok = v, true
	return true
}

// grow doubles the array until it holds span consecutive keys, and moves the
// live keys to their slots under the new mask.
func (r *seqRing[V]) grow(span uint64) {
	size := 2 * len(r.slots)
	for uint64(size) < span {
		size *= 2
	}
	slots := make([]seqSlot[V], size)
	oldMask, mask := uint64(len(r.slots)-1), uint64(size-1)
	for k := r.lo; ; k++ {
		slots[k&mask] = r.slots[k&oldMask]
		if k == r.hi {
			break
		}
	}
	r.slots = slots
}

// del removes k, if live.
func (r *seqRing[V]) del(k uint64) {
	if r.n == 0 || k < r.lo || k > r.hi {
		return
	}
	mask := uint64(len(r.slots) - 1)
	s := &r.slots[k&mask]
	if !s.ok {
		return
	}
	*s = seqSlot[V]{}
	r.n--
	if r.n == 0 {
		return
	}
	if k == r.lo {
		for r.lo++; !r.slots[r.lo&mask].ok; r.lo++ {
		}
	}
	if k == r.hi {
		for r.hi--; !r.slots[r.hi&mask].ok; r.hi-- {
		}
	}
}

// top returns the largest live key, and false when the ring is empty.
func (r *seqRing[V]) top() (uint64, bool) { return r.hi, r.n > 0 }

// visit yields the live keys in [from, to] in ascending order, with their
// values. The loop body may delete any key; it must not put. The walk covers
// at most the span of live keys, however wide [from, to] is.
func (r *seqRing[V]) visit(from, to uint64) iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		if r.n == 0 {
			return
		}
		for k := max(from, r.lo); r.n > 0 && k <= min(to, r.hi); k++ {
			s := &r.slots[k&uint64(len(r.slots)-1)]
			if s.ok && !yield(k, s.v) || k == ^uint64(0) {
				return
			}
		}
	}
}

// all yields every live key in ascending order; see visit.
func (r *seqRing[V]) all() iter.Seq2[uint64, V] { return r.visit(0, ^uint64(0)) }

// clear removes every key and keeps the array.
func (r *seqRing[V]) clear() {
	for k := range r.all() {
		r.slots[k&uint64(len(r.slots)-1)] = seqSlot[V]{}
	}
	r.n = 0
}

// release removes every key and drops the array.
func (r *seqRing[V]) release() { *r = seqRing[V]{} }
