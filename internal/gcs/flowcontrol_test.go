package gcs

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// creditRow builds an idle three-member stack (self 1, destinations 2 and 3)
// whose credit columns the tests below drive directly, with the window set
// to limit chunks.
func creditRow(t *testing.T, limit uint64) *relMcast {
	rm := newCluster(t, 3, 11, nil).stacks[1].rm
	rm.creditLimit = limit
	return rm
}

// allows asks the gate about dst alone: creditOK walks every live
// destination, so the other one is given credit no test sequence reaches.
func allows(rm *relMcast, dst NodeID, seq uint64) bool {
	for id, ps := range rm.peers {
		if id != dst {
			ps.acked = 1 << 40
		}
	}
	return rm.creditOK(seq)
}

// TestCreditGateTable drives the credit window through its transitions over
// the peer rows: exhaustion blocks, acknowledgements replenish monotonically,
// an excluded destination's cursor is forgotten (its next incarnation starts
// from zero credit), and an own-stream restart clears every cursor.
func TestCreditGateTable(t *testing.T) {
	tests := []struct {
		name  string
		limit uint64
		setup func(rm *relMcast)
		dst   NodeID
		seq   uint64
		want  bool
	}{
		{name: "fresh gate allows within limit", limit: 4, dst: 2, seq: 4, want: true},
		{name: "fresh gate blocks beyond limit", limit: 4, dst: 2, seq: 5, want: false},
		{name: "ack advances the window", limit: 4, dst: 2, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 6) }, want: true},
		{name: "window edge is inclusive", limit: 4, dst: 2, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 5) }, want: false},
		{name: "stale ack does not regress", limit: 4, dst: 2, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 6); rm.creditAck(2, 3) }, want: true},
		{name: "forget drops the cursor", limit: 4, dst: 2, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 6); rm.excludePeer(2, 0); rm.reset(2, 0) }, want: false},
		{name: "reset drops every cursor", limit: 4, dst: 3, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 6); rm.creditAck(3, 8); rm.resetSelf() }, want: false},
		{name: "cursors are per destination", limit: 4, dst: 3, seq: 10,
			setup: func(rm *relMcast) { rm.creditAck(2, 100) }, want: false},
		{name: "production window", limit: creditsPerDest, dst: 2, seq: creditsPerDest + 7,
			setup: func(rm *relMcast) { rm.creditAck(2, 7) }, want: true},
		{name: "production window edge", limit: creditsPerDest, dst: 2, seq: creditsPerDest + 8,
			setup: func(rm *relMcast) { rm.creditAck(2, 7) }, want: false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rm := creditRow(t, tc.limit)
			if tc.setup != nil {
				tc.setup(rm)
			}
			if got := allows(rm, tc.dst, tc.seq); got != tc.want {
				t.Fatalf("allows(%d, %d) = %v, want %v", tc.dst, tc.seq, got, tc.want)
			}
		})
	}
}

// TestCreditGateMonotone pins the merge semantics creditAck relies on: the
// return value reports exactly the advances, and the cursor never moves
// backwards however acknowledgements are reordered in flight.
func TestCreditGateMonotone(t *testing.T) {
	rm := creditRow(t, 8)
	steps := []struct {
		seq  uint64
		want bool
	}{{5, true}, {5, false}, {3, false}, {9, true}, {1, false}, {9, false}, {10, true}}
	for i, s := range steps {
		if got := rm.creditAck(2, s.seq); got != s.want {
			t.Fatalf("step %d: creditAck(2, %d) = %v, want %v", i, s.seq, got, s.want)
		}
	}
	if got := rm.peers[2].acked; got != 10 {
		t.Fatalf("acked = %d, want 10", got)
	}
}

// TestCreditGateReplenishDeterministic verifies the drain-side property the
// cluster tests rely on: every acknowledgement advance unblocks exactly the
// same span of sequence numbers, run after run.
func TestCreditGateReplenishDeterministic(t *testing.T) {
	for run := 0; run < 2; run++ {
		rm := creditRow(t, 2)
		var unblocked []uint64
		next := uint64(1)
		for ackTo := uint64(0); ackTo <= 10; ackTo += 2 {
			rm.creditAck(2, ackTo)
			for allows(rm, 2, next) {
				unblocked = append(unblocked, next)
				next++
			}
		}
		if len(unblocked) != 12 || unblocked[0] != 1 || unblocked[11] != 12 {
			t.Fatalf("run %d: unblocked %v, want exactly 1..12", run, unblocked)
		}
	}
}

// TestCreditGateHotPathAllocs pins the per-chunk gate operations,
// relMcast.creditOK and creditAck, at zero allocations: they run once per
// transmitted chunk and once per acknowledgement merge.
func TestCreditGateHotPathAllocs(t *testing.T) {
	rm := creditRow(t, creditsPerDest)
	seq := uint64(2)
	if n := testing.AllocsPerRun(100, func() {
		rm.creditAck(2, seq)
		rm.creditAck(3, seq)
		seq++
	}); n != 0 {
		t.Fatalf("creditAck allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		rm.creditOK(seq)
		rm.creditOK(seq + 200)
	}); n != 0 {
		t.Fatalf("creditOK allocates %v per run, want 0", n)
	}
}

// TestCreditOKAllocs pins the full per-chunk admission check,
// relMcast.creditOK — a walk over the live view consulting every
// destination's cursor — at zero allocations against a real three-member
// stack.
func TestCreditOKAllocs(t *testing.T) {
	c := newCluster(t, 3, 11, nil)
	c.castAt(10*sim.Millisecond, 1, []byte("warm"))
	c.run(2 * sim.Second)
	rm := c.stacks[1].rm
	if n := testing.AllocsPerRun(100, func() {
		rm.creditOK(rm.sendSeq + 1)
	}); n != 0 {
		t.Fatalf("creditOK allocates %v per run, want 0", n)
	}
}

// TestCreditWindowThrottlesSender shrinks the credit window to two chunks
// and pushes a forty-message burst through it: the sender must stall
// (CreditStalls > 0) yet replenishment from stability gossip must drain the
// whole burst — total order intact, no deadlock.
func TestCreditWindowThrottlesSender(t *testing.T) {
	c := newCluster(t, 3, 21, nil)
	for _, st := range c.stacks {
		st.rm.creditLimit = 2
	}
	for i := 0; i < 40; i++ {
		c.castAt(sim.Second, 2, []byte{byte(i)})
	}
	c.run(30 * sim.Second)
	c.checkAgreement(nodes(3), 40)
	if st := c.stacks[2].Stats(); st.CreditStalls == 0 {
		t.Fatal("a 2-chunk credit window absorbed a 40-message burst without a single stall")
	}
}

// TestCreditDefaultNoStalls is the control for the throttle test: under the
// production window the identical burst records no credit stalls.
func TestCreditDefaultNoStalls(t *testing.T) {
	c := newCluster(t, 3, 21, nil)
	for i := 0; i < 40; i++ {
		c.castAt(sim.Second, 2, []byte{byte(i)})
	}
	c.run(30 * sim.Second)
	c.checkAgreement(nodes(3), 40)
	if st := c.stacks[2].Stats(); st.CreditStalls != 0 {
		t.Fatalf("the %d-chunk credit window recorded %d stalls", creditsPerDest, st.CreditStalls)
	}
}

// burstOutcome submits a burst of large payloads at one instant and reports
// how many Multicast accepted and refused, plus the sender's final stats.
// queueLimit overrides the sender's transmit-queue bound.
func burstOutcome(t *testing.T, queueLimit, msgs, size int) (accepted, refused int, st Stats, c *cluster) {
	t.Helper()
	c = newCluster(t, 3, 31, nil)
	c.stacks[1].rm.outQLimit = queueLimit
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	c.k.ScheduleAt(sim.Second, func() {
		c.rts[1].CPUs().SubmitReal(func() {
			for i := 0; i < msgs; i++ {
				if c.stacks[1].Multicast(payload) {
					accepted++
				} else {
					refused++
				}
			}
		}, nil)
	})
	c.run(60 * sim.Second)
	st = c.stacks[1].Stats()
	return accepted, refused, st, c
}

// TestTransmitQueueBound is the regression test for the unbounded transmit
// queue: before the bound existed, a burst arriving faster than flow control
// drains simply piled up in the unsent queue without limit. The first half
// reproduces that baseline (bound lifted: every message accepted, queue
// peak past a mebibyte); the second half pins the fix (queue peak bounded,
// overflow refused and counted, everything accepted still delivered
// everywhere in total order).
func TestTransmitQueueBound(t *testing.T) {
	const (
		msgs = 300
		size = 8 << 10
	)

	// Baseline: bound lifted — the queue grows without limit.
	accepted, refused, st, _ := burstOutcome(t, math.MaxInt, msgs, size)
	if refused != 0 || accepted != msgs {
		t.Fatalf("unbounded queue refused %d of %d messages", refused, msgs)
	}
	if st.FlowRejected != 0 {
		t.Fatalf("unbounded queue counted %d FlowRejected", st.FlowRejected)
	}
	if st.QueuePeakBytes <= maxQueuedBytes {
		t.Fatalf("baseline queue peak %d bytes never exceeded the 1 MiB the bound would impose — burst too small to regress", st.QueuePeakBytes)
	}

	// Fix: the production bound — refusals surface, the peak stays bounded,
	// and every accepted message still reaches every member.
	accepted, refused, st, c := burstOutcome(t, maxQueuedBytes, msgs, size)
	if refused == 0 {
		t.Fatal("bounded queue accepted the whole burst; expected refusals")
	}
	if accepted+refused != msgs {
		t.Fatalf("accepted %d + refused %d != %d", accepted, refused, msgs)
	}
	if st.FlowRejected != int64(refused) {
		t.Fatalf("FlowRejected = %d, Multicast refused %d", st.FlowRejected, refused)
	}
	// The bound checks payload bytes against the queue before appending;
	// chunk wire headers may push the recorded peak slightly past the limit.
	if lim := int64(maxQueuedBytes + size); st.QueuePeakBytes > lim {
		t.Fatalf("queue peak %d bytes exceeds bound %d", st.QueuePeakBytes, lim)
	}
	c.checkAgreement(nodes(3), accepted)
}
