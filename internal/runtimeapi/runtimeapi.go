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

// Timer is a re-armable callback, created once by the code that owns it
// (Runtime.NewTimer) and armed as often as that code needs, so arming it
// allocates nothing. Its callback is real code, run as a job on the node's
// CPU like any other. An arm is pending from Arm until it fires or Stop
// withdraws it. Under simulation, a fired arm's callback may still wait
// behind a busy CPU, where Stop no longer reaches it.
type Timer interface {
	// Arm files the callback to run d from now. It does not withdraw an
	// earlier arm that is still pending: that one fires as well.
	Arm(d sim.Time)
	// Stop withdraws the latest arm, reporting whether it was pending.
	Stop() bool
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

	// StartJob runs fn after d, fire and forget. fn is real code: it is
	// profiled and its cost occupies the node's CPU. Nothing can cancel
	// it, so the runtime recycles its bookkeeping; a caller that arms the
	// same job again and again binds fn once and allocates nothing.
	StartJob(d sim.Time, fn func())

	// NewTimer creates a Timer that runs fn, disarmed. A caller that must
	// be able to cancel a pending job keeps one and re-arms it.
	NewTimer(fn func()) Timer

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
