//go:build race

package gcs

// poisonRecycled makes recycleBody overwrite a buffer's whole capacity with
// 0xFF before it rejoins the free list, so a reader that kept a Payload past
// its upcall sees garbage in every `go test -race` run instead of another
// message's bytes once in a while.
const poisonRecycled = true
