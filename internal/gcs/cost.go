package gcs

import "repro/internal/sim"

// The CPU consumption the protocol's real code declares to the simulation
// runtime (runtimeapi.Runtime.Charge, accumulated by csrt.ModelProfiler);
// the native runtime ignores the charges. Values are calibrated so that
// protocol CPU usage lands in the band the paper reports (Figure 7c: ~1.2% of
// one CPU at 3 sites and 750 clients, rising to ~1.9% under 5% message loss).
const (
	// costPerMessage is the fixed cost of handling one protocol message
	// (demultiplex, header decode, bookkeeping).
	costPerMessage = 12 * sim.Microsecond
	// costPerByte is the marshaling/copy cost per payload byte, in
	// nanoseconds per byte.
	costPerByte = 3.0
	// costPerGossip is the cost of merging one stability gossip round state.
	costPerGossip = 5 * sim.Microsecond
	// costPerAssign is the sequencer's cost of assigning one global sequence
	// number.
	costPerAssign = 2 * sim.Microsecond
	// costPerNack is the receiver's cost of scanning for gaps and building a
	// repair request.
	costPerNack = 60 * sim.Microsecond
	// costPerRetrans is the sender's cost of serving one retransmission:
	// locating the buffered message and rebuilding the packet. This is
	// the "extra work by the protocol in retransmitting messages" behind
	// the CPU increase of Figure 7(c).
	costPerRetrans = 150 * sim.Microsecond
)

// msgCost computes the handling cost of an n-byte message.
func msgCost(n int) sim.Time {
	return costPerMessage + sim.Time(costPerByte*float64(n))
}
