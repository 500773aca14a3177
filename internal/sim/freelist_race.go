//go:build race

package sim

// checkDoublePut makes a FreeList keep the set of values waiting on it and
// Put panic on one that is already there, so every `go test -race` run
// checks every pool in the tree for a record recycled twice.
const checkDoublePut = true
