package sim

import "sync"

// Shelf holds what finished models handed back until the next model takes
// it: last in, first out, and safe for the concurrent workers of one
// process, unlike a FreeList. It holds only what was put and not yet taken,
// so with every model giving back what it took, it never holds more than one
// model's worth per concurrent worker. Unlike a sync.Pool it is not emptied
// by a collection, which a run triggers many times before the next model
// starts. The zero value is an empty shelf.
type Shelf[T any] struct {
	mu    sync.Mutex
	items []T
}

// Put shelves v.
func (s *Shelf[T]) Put(v T) {
	s.mu.Lock()
	s.items = append(s.items, v)
	s.mu.Unlock()
}

// Get takes the most recently shelved value, and reports false on an empty
// shelf.
func (s *Shelf[T]) Get() (v T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	if n == 0 {
		return v, false
	}
	v = s.items[n-1]
	var zero T
	s.items[n-1] = zero
	s.items = s.items[:n-1]
	return v, true
}

// Len is the number of values waiting.
func (s *Shelf[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
