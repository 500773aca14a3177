//go:build race

package dbsm

// poisonRecycled makes UnmarshalFrom overwrite the record's reused read-set
// and write-set storage with all-ones before decoding into it, so a reader
// that kept a decoded set past the next decode sees garbage in every `go test
// -race` run instead of another transaction's identifiers once in a while.
const poisonRecycled = true
