//go:build race

package gcs

// poisonRecycled makes every buffer the reliable layer recycles — a body at
// the end of its delivery upcall, a stable wire chunk of the own stream, a
// received chunk's dataMsg buffer — have its whole capacity overwritten
// with 0xFF before it rejoins its free list, so a reader that kept the bytes
// too long sees garbage in every `go test -race` run instead of another
// message's bytes once in a while.
const poisonRecycled = true
