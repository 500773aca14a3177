//go:build race

package simnet

// checkPayload makes Send and Multicast record a digest of the packet's copy
// of the payload and every arrival and the last release recompute it,
// panicking on a receiver that wrote it; the last release then fills the
// buffer with 0xFF before it is pooled, so a receiver that kept the bytes
// past its upcall reads garbage. Every `go test -race` run checks every
// receiver of the wire.
const checkPayload = true
