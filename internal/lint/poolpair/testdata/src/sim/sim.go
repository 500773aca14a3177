// Package sim is the fixture's miniature of internal/sim: the one package
// where a free list may be popped by hand.
package sim

type FreeList[T any] struct{ free []T }

func (f *FreeList[T]) Get() T {
	var zero T
	n := len(f.free)
	if n == 0 {
		return zero
	}
	v := f.free[n-1]
	f.free[n-1] = zero
	f.free = f.free[:n-1]
	return v
}

func (f *FreeList[T]) Put(v T) { f.free = append(f.free, v) }

// The kernel's slot list is pointer-free and stays a bare slice.
type kernel struct{ freeSlots []int32 }

func (k *kernel) takeSlot() int32 {
	if n := len(k.freeSlots); n > 0 {
		slot := k.freeSlots[n-1]
		k.freeSlots = k.freeSlots[:n-1]
		return slot
	}
	return -1
}

func (k *kernel) giveSlot(slot int32) { k.freeSlots = append(k.freeSlots, slot) }
