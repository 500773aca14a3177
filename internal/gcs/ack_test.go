package gcs

import (
	"testing"
)

// ackRow builds an idle three-member stack (self 1, destinations 2 and 3)
// whose ack cursors the tests below drive directly.
func ackRow(t *testing.T) *relMcast {
	return newCluster(t, 3, 11, nil).stacks[1].rm
}

// TestCreditGateTable drives the ack cursors through their transitions over
// the peer rows: acknowledgements advance a cursor monotonically and per
// destination, an excluded destination's cursor is forgotten (its next
// incarnation starts from zero), and an own-stream restart clears every
// cursor. Uniform delivery at the sequencer counts these cursors.
func TestCreditGateTable(t *testing.T) {
	tests := []struct {
		name  string
		setup func(rm *relMcast)
		dst   NodeID
		want  uint64
	}{
		{name: "ack advances the window", dst: 2, want: 6,
			setup: func(rm *relMcast) { rm.mergeAck(2, 6) }},
		{name: "stale ack does not regress", dst: 2, want: 6,
			setup: func(rm *relMcast) { rm.mergeAck(2, 6); rm.mergeAck(2, 3) }},
		{name: "forget drops the cursor", dst: 2, want: 0,
			setup: func(rm *relMcast) { rm.mergeAck(2, 6); rm.excludePeer(2, 0); rm.reset(2, 0) }},
		{name: "reset drops every cursor", dst: 3, want: 0,
			setup: func(rm *relMcast) { rm.mergeAck(2, 6); rm.mergeAck(3, 8); rm.resetSelf() }},
		{name: "cursors are per destination", dst: 3, want: 0,
			setup: func(rm *relMcast) { rm.mergeAck(2, 100) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rm := ackRow(t)
			tc.setup(rm)
			if got := rm.peer(tc.dst).acked; got != tc.want {
				t.Fatalf("acked(%d) = %d, want %d", tc.dst, got, tc.want)
			}
		})
	}
}

// TestCreditGateMonotone pins the merge semantics mergeAck relies on: the
// return value reports exactly the advances, and the cursor never moves
// backwards however acknowledgements are reordered in flight.
func TestCreditGateMonotone(t *testing.T) {
	rm := ackRow(t)
	steps := []struct {
		seq  uint64
		want bool
	}{{5, true}, {5, false}, {3, false}, {9, true}, {1, false}, {9, false}, {10, true}}
	for i, s := range steps {
		if got := rm.mergeAck(2, s.seq); got != s.want {
			t.Fatalf("step %d: mergeAck(2, %d) = %v, want %v", i, s.seq, got, s.want)
		}
	}
	if got := rm.peer(2).acked; got != 10 {
		t.Fatalf("acked = %d, want 10", got)
	}
}

// TestCreditGateHotPathAllocs pins relMcast.mergeAck at zero allocations: it
// runs once per assign-ack and once per gossip horizon.
func TestCreditGateHotPathAllocs(t *testing.T) {
	rm := ackRow(t)
	seq := uint64(2)
	if n := testing.AllocsPerRun(100, func() {
		rm.mergeAck(2, seq)
		rm.mergeAck(3, seq)
		seq++
	}); n != 0 {
		t.Fatalf("mergeAck allocates %v per run, want 0", n)
	}
}
