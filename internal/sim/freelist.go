package sim

import (
	"iter"
	"slices"
	"unsafe"
)

// FreeList recycles the per-event records of one owner: last in, first
// out, single-threaded like everything else under a Kernel. T is a pointer
// or a slice — a value with an identity, which is what the race-build
// double-put check compares. The zero value is an empty list.
//
// The list also counts what it has lent (Out), in every build: once an
// owner's work drains, a value that was never given back is a leak, and
// the owner's tests assert Out() == 0 there.
type FreeList[T any] struct {
	free []T
	out  int // Gets, misses included, minus Puts and Discards since the last Drop
	// waiting is the set of addresses on free in race builds
	// (checkDoublePut), so the check costs a map probe however long the
	// list is; nil otherwise. The list keeps every keyed address alive.
	waiting map[uintptr]struct{}
}

// Get pops the most recently recycled value and zeroes the slot it left, so
// the backing array does not pin it for the garbage collector. An empty
// list returns the zero T: the caller allocates and binds a fresh value,
// which counts as lent all the same.
func (f *FreeList[T]) Get() T {
	f.out++
	var zero T
	n := len(f.free)
	if n == 0 {
		return zero
	}
	v := f.free[n-1]
	f.free[n-1] = zero
	f.free = f.free[:n-1]
	if checkDoublePut {
		delete(f.waiting, address(v))
	}
	return v
}

// Put hands v back for the next Get. Race builds (freelist_race.go) panic
// when v is already waiting: a record recycled twice is a double free of a
// simulation event — two owners would later share it.
func (f *FreeList[T]) Put(v T) {
	f.out--
	if checkDoublePut {
		p := address(v)
		if _, dup := f.waiting[p]; dup {
			panic("sim: FreeList.Put of a value that is already on the list")
		}
		if f.waiting == nil {
			f.waiting = make(map[uintptr]struct{})
		}
		f.waiting[p] = struct{}{}
	}
	f.free = append(f.free, v)
}

// Discard takes back a lent value the owner leaves to the garbage collector
// instead of putting it on the list: a bounded list that is full, or a
// record something else keeps reachable.
func (f *FreeList[T]) Discard() { f.out-- }

// Len is the number of values waiting.
func (f *FreeList[T]) Len() int { return len(f.free) }

// Out is the number of values lent by Get and not yet taken back by Put or
// Discard since the last Drop.
func (f *FreeList[T]) Out() int { return f.out }

// Drop releases the list and its backing array and forgets what is lent (an
// owner that halts).
func (f *FreeList[T]) Drop() { *f = FreeList[T]{} }

// All iterates the waiting values, oldest first, for tests that look inside
// a pool.
func (f *FreeList[T]) All() iter.Seq[T] { return slices.Values(f.free) }

// address is v's identity: the pointer it is, or the backing array of the
// slice it is whatever its length — the first word of either.
func address[T any](v T) uintptr { return *(*uintptr)(unsafe.Pointer(&v)) }
