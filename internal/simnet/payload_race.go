//go:build race

package simnet

// checkPayload makes Send and Multicast record a digest of the payload and
// every arrival and the last release recompute it, panicking on a buffer
// that changed in flight, so every `go test -race` run checks every caller
// of the zero-copy wire.
const checkPayload = true
