//go:build race

package db

// poisonRecycled makes Txn.Recycle overwrite the backing arrays of the
// transaction's sets with all-ones, so a reader that kept a set past the
// server's hold sees garbage in every `go test -race` run instead of the next
// transaction's identifiers once in a while.
const poisonRecycled = true
