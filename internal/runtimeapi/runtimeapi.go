// Package runtimeapi defines the abstraction layer that the replication
// prototypes (group communication and certification, the "real code" under
// test) are written against.
//
// Mirroring Section 2.3 of the paper, the layer provides job scheduling,
// clock access, and a simplified datagram network interface in a
// single-threaded environment, and is implemented twice:
//
//   - internal/csrt bridges it onto the simulation kernel and simulated
//     network, folding the CPU cost the real code declares into the
//     simulated time line;
//   - the native implementation in this package (Native) bridges it onto
//     the Go runtime (time.Timer, net.UDPConn), so the same protocol code
//     can be deployed on a real network unchanged. No command builds a
//     Native: its readers are native_test.go here and gcs/native_test.go,
//     which runs the whole group communication stack over loopback sockets.
package runtimeapi

import (
	"errors"

	"repro/internal/sim"
)

// NodeID identifies a process (one replica's protocol stack endpoint).
type NodeID int32

// Group identifies a multicast group.
type Group int32

// Receiver is the upcall invoked when a datagram arrives. Implementations
// must treat it as real code: it runs single-threaded and its execution cost
// is accounted to the node's CPU. data is lent for the upcall only — the
// runtime reuses the buffer once the upcall returns — so a receiver copies
// whatever it keeps.
type Receiver func(src NodeID, data []byte)

// Timer is a cancellable pending callback.
type Timer interface {
	// Cancel stops the timer, reporting whether it was still pending.
	Cancel() bool
}

// Errors returned by Runtime network operations.
var (
	// ErrTooBig indicates the payload exceeds the maximum packet size.
	ErrTooBig = errors.New("runtimeapi: payload exceeds MTU")
	// ErrDown indicates the local node has been stopped or crashed.
	ErrDown = errors.New("runtimeapi: node is down")
)

// Runtime is the single-threaded execution environment for protocol code.
//
// All methods must be called from the runtime's own dispatch context (i.e.
// from within a Receiver or Timer callback, or before the run starts); the
// environment never invokes two callbacks concurrently.
type Runtime interface {
	// Self reports the local node identifier.
	Self() NodeID

	// Now reports the node-local clock. Under simulation this is virtual
	// time including the measured cost of the current job so far; under
	// the native bridge it is monotonic wall time since start.
	Now() sim.Time

	// Schedule runs fn after d. fn is real code: it is profiled and its
	// cost occupies the node's CPU.
	Schedule(d sim.Time, fn func()) Timer

	// StartJob runs fn after d like Schedule but fire-and-forget: no
	// cancellation handle is returned, which lets the runtime recycle
	// its timer bookkeeping. Prefer it for one-shot jobs on hot paths.
	StartJob(d sim.Time, fn func())

	// Charge accounts explicit model cost for the current job: it is how
	// real code declares its CPU consumption to the simulation runtime.
	// The native runtime, where the code costs what it costs, ignores it.
	Charge(cost sim.Time)

	// Send transmits a unicast datagram (unreliable, unordered). It has
	// socket semantics: data is copied before Send returns, so the caller
	// may reuse the buffer at once, and the receiver gets its own bytes.
	Send(dst NodeID, data []byte) error

	// Multicast transmits a datagram to every member of g, excluding the
	// sender (unreliable). On LAN topologies this maps to one wire
	// transmission (IP multicast); elsewhere the protocol layer falls
	// back to unicast. data is copied before Multicast returns, as by Send.
	Multicast(g Group, data []byte) error

	// SetReceiver installs the datagram upcall. It must be set before
	// traffic arrives.
	SetReceiver(r Receiver)

	// MTU reports the maximum payload size accepted by Send/Multicast.
	MTU() int
}
