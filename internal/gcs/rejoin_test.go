package gcs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// crashNode kills a node at a simulated instant: runtime, host, stack.
func (c *cluster) crashNode(at sim.Time, id NodeID) {
	c.k.ScheduleAt(at, func() {
		c.stacks[id].Stop()
		c.rts[id].Crash()
		c.net.Host(id).SetDown(true)
	})
}

// rejoinNode restarts a crashed node at a simulated instant with a fresh
// joining stack (the old incarnation's state is gone, as after a real
// crash). Deliveries of the new incarnation are collected separately and the
// learned catch-up sequence recorded.
func (c *cluster) rejoinNode(at sim.Time, id NodeID, n int, joinSeq *uint64) {
	c.k.ScheduleAt(at, func() {
		c.rts[id].Restart()
		c.net.Host(id).SetDown(false)
		c.delivered[id] = nil // fresh incarnation, fresh delivery log
		members := nodes(n)
		cfg := Config{Self: id, Members: members, Group: 1, UseMulticast: true,
			Joining: true, failTimeout: 500 * sim.Millisecond}
		st, err := New(c.rts[id], cfg)
		if err != nil {
			c.t.Fatal(err)
		}
		st.OnDeliver(func(d Delivery) {
			c.delivered[id] = append(c.delivered[id], keep(d))
		})
		st.OnViewChange(func(v View) {
			c.views[id] = append(c.views[id], v)
		})
		st.OnJoined(func(seq uint64) { *joinSeq = seq })
		c.stacks[id] = st
		st.Start()
	})
}

// checkSuffixAgreement verifies the joiner delivered exactly the survivors'
// suffix above joinSeq, in the identical order.
func checkSuffixAgreement(t *testing.T, survivor, joiner []Delivery, joinSeq uint64) {
	t.Helper()
	var suffix []Delivery
	for _, d := range survivor {
		if d.Global > joinSeq {
			suffix = append(suffix, d)
		}
	}
	if len(joiner) != len(suffix) {
		t.Fatalf("joiner delivered %d messages above joinSeq=%d, survivors delivered %d",
			len(joiner), joinSeq, len(suffix))
	}
	for i := range suffix {
		if joiner[i].Global != suffix[i].Global || joiner[i].Sender != suffix[i].Sender ||
			!bytes.Equal(joiner[i].Payload, suffix[i].Payload) {
			t.Fatalf("joiner suffix diverged at %d: %+v vs %+v", i, joiner[i], suffix[i])
		}
	}
}

func TestRejoinNonSequencerCatchesUp(t *testing.T) {
	c := newCluster(t, 3, 21, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	// Pre-crash traffic.
	for i := 0; i < 10; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("pre%d", i)))
	}
	c.crashNode(300*sim.Millisecond, 3)
	// Mid-outage traffic the joiner must NOT see (covered by its snapshot).
	for i := 0; i < 10; i++ {
		c.castAt(3*sim.Second+sim.Time(i+1)*10*sim.Millisecond, NodeID(i%2+1), []byte(fmt.Sprintf("mid%d", i)))
	}
	var joinSeq uint64
	preDeliveries := len(c.delivered[3])
	c.rejoinNode(5*sim.Second, 3, 3, &joinSeq)
	// Post-rejoin traffic everyone must deliver.
	for i := 0; i < 10; i++ {
		c.castAt(8*sim.Second+sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("post%d", i)))
	}
	c.run(15 * sim.Second)

	if joinSeq == 0 {
		t.Fatal("joiner never learned its catch-up sequence")
	}
	st := c.stacks[3]
	if !st.Joined() {
		t.Fatal("joiner stack never finished joining")
	}
	if st.Stats().Joins != 1 {
		t.Fatalf("Joins = %d, want 1", st.Stats().Joins)
	}
	for _, id := range nodes(3) {
		v := c.stacks[id].View()
		if len(v.Members) != 3 || !v.Contains(3) {
			t.Fatalf("node %d view %+v does not include the rejoined member", id, v)
		}
		if v.Sequencer() == 3 {
			t.Fatal("the joiner must not become sequencer of the join view")
		}
	}
	// Survivors agree on the full stream.
	c.checkAgreement([]NodeID{1, 2}, 30)
	_ = preDeliveries
	checkSuffixAgreement(t, c.delivered[1], c.delivered[3], joinSeq)
	// The joiner's own post-rejoin casts made it into the total order.
	found := false
	for _, d := range c.delivered[1] {
		if d.Sender == 3 && d.Global > joinSeq {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no post-rejoin message from the joiner was delivered group-wide")
	}
}

func TestRejoinSequencerComesBackAsFollower(t *testing.T) {
	c := newCluster(t, 3, 22, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	for i := 0; i < 8; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("pre%d", i)))
	}
	// Crash the sequencer (node 1); node 2 takes over.
	c.crashNode(300*sim.Millisecond, 1)
	for i := 0; i < 8; i++ {
		c.castAt(3*sim.Second+sim.Time(i+1)*10*sim.Millisecond, NodeID(i%2+2), []byte(fmt.Sprintf("mid%d", i)))
	}
	var joinSeq uint64
	c.rejoinNode(5*sim.Second, 1, 3, &joinSeq)
	for i := 0; i < 8; i++ {
		c.castAt(8*sim.Second+sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("post%d", i)))
	}
	c.run(15 * sim.Second)

	if joinSeq == 0 {
		t.Fatal("joiner never learned its catch-up sequence")
	}
	for _, id := range nodes(3) {
		v := c.stacks[id].View()
		if !v.Contains(1) || len(v.Members) != 3 {
			t.Fatalf("node %d view %+v", id, v)
		}
		// The old sequencer must NOT regain the role just by rejoining:
		// survivors keep their order, so node 2 still sequences.
		if v.Sequencer() != 2 {
			t.Fatalf("node %d sequencer = %d, want 2", id, v.Sequencer())
		}
	}
	c.checkAgreement([]NodeID{2, 3}, 24)
	checkSuffixAgreement(t, c.delivered[2], c.delivered[1], joinSeq)
}

func TestRejoinUnderLoss(t *testing.T) {
	c := newCluster(t, 3, 23, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	for _, id := range nodes(3) {
		c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.08})
	}
	count := 0
	for r := 0; r < 20; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			count++
		}
	}
	c.crashNode(400*sim.Millisecond, 3)
	var joinSeq uint64
	c.rejoinNode(5*sim.Second, 3, 3, &joinSeq)
	for r := 0; r < 10; r++ {
		for _, id := range nodes(3) {
			c.castAt(9*sim.Second+sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("p%d-%d", id, r)))
		}
	}
	c.run(25 * sim.Second)

	if joinSeq == 0 {
		t.Fatal("joiner never synced under loss")
	}
	c.checkAgreement([]NodeID{1, 2}, -1)
	checkSuffixAgreement(t, c.delivered[1], c.delivered[3], joinSeq)
}

// TestRejoinUnderHeavyLossManySeeds hammers the admission handshake with
// 25% receiver loss across seeds: lost decides and join syncs force the
// retry paths, including the readmission of a live joiner whose pre-install
// join requests a survivor mistook for a fresh restart. Whatever path a
// seed takes, every delivery the joiner makes above its final catch-up
// sequence must be exactly the survivors' suffix.
func TestRejoinUnderHeavyLossManySeeds(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		c := newCluster(t, 3, seed, func(cfg *Config) {
			// 20 consecutive heartbeat losses (~1e-12 at 25%) would be
			// needed for a false suspicion: only the real crash trips
			// the detector, while the admission traffic still suffers
			// heavy loss.
			cfg.failTimeout = 2 * sim.Second
		})
		for _, id := range nodes(3) {
			c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.25})
		}
		for r := 0; r < 20; r++ {
			for _, id := range nodes(3) {
				c.castAt(sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			}
		}
		c.crashNode(400*sim.Millisecond, 3)
		var joinSeq uint64
		c.rejoinNode(4*sim.Second, 3, 3, &joinSeq)
		for r := 0; r < 10; r++ {
			for _, id := range nodes(3) {
				c.castAt(10*sim.Second+sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("p%d-%d", id, r)))
			}
		}
		c.run(40 * sim.Second)

		st := c.stacks[3]
		if !st.Joined() {
			t.Fatalf("seed %d: joiner never finished joining", seed)
		}
		c.checkAgreement([]NodeID{1, 2}, -1)
		final := st.JoinSeq()
		// Deliveries above the final catch-up sequence must match the
		// survivors' suffix exactly; any delivered below it must agree
		// with the survivors' entry at the same global (they were
		// delivered under an earlier, superseded sync).
		byGlobal := map[uint64]Delivery{}
		for _, d := range c.delivered[1] {
			byGlobal[d.Global] = d
		}
		joinerAbove := map[uint64]bool{}
		for _, d := range c.delivered[3] {
			ref, ok := byGlobal[d.Global]
			if !ok || ref.Sender != d.Sender || !bytes.Equal(ref.Payload, d.Payload) {
				t.Fatalf("seed %d: joiner delivery %+v disagrees with survivors", seed, d)
			}
			if d.Global > final {
				joinerAbove[d.Global] = true
			}
		}
		for _, d := range c.delivered[1] {
			if d.Global > final && !joinerAbove[d.Global] {
				t.Fatalf("seed %d: joiner missed delivery %d above its catch-up sequence %d",
					seed, d.Global, final)
			}
		}
	}
}

// TestCrashReleasesBuffers is the leak regression for halted stacks: a
// crashed (or excluded, or wedged) member's receive- and send-side buffers
// must be released at halt time, not await a stability GC round that a dead
// stack never runs.
func TestCrashReleasesBuffers(t *testing.T) {
	c := newCluster(t, 3, 24, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
		// Slow stability so buffers are guaranteed nonempty at crash time.
		cfg.stabilityPeriod = 10 * sim.Second
	})
	for i := 0; i < 20; i++ {
		c.castAt(sim.Time(i+1)*2*sim.Millisecond, NodeID(i%3+1), make([]byte, 600))
	}
	// Let traffic flow, then verify buffers are actually populated.
	c.run(200 * sim.Millisecond)
	if c.stacks[3].BufferedMessages() == 0 {
		t.Fatal("test premise broken: no buffered messages before crash")
	}
	c.stacks[3].Stop()
	if got := c.stacks[3].BufferedMessages(); got != 0 {
		t.Fatalf("halted stack still buffers %d messages", got)
	}
	if got := c.stacks[3].BufferedBytes(); got != 0 {
		t.Fatalf("halted stack still pins %d payload bytes", got)
	}
	// Survivors keep working.
	c.rts[3].Crash()
	c.net.Host(3).SetDown(true)
	c.castAt(3*sim.Second, 1, []byte("after"))
	c.run(10 * sim.Second)
	c.checkAgreement([]NodeID{1, 2}, -1)
}

// TestPeerRowReset drives the one restart path of a peer row and checks every
// column: the stream cursors and the stable prefix restart at upto, the
// buffers of the dead incarnation are gone, the credit cursor is re-seeded,
// and the failure detector's columns — which belong to the view install, not
// to the stream — are left alone.
func TestPeerRowReset(t *testing.T) {
	// warm runs traffic from every member so the rows hold nonzero state,
	// then leaves fresh chunks of node 1 in flight past the last gossip.
	warm := func(t *testing.T) *cluster {
		c := newCluster(t, 3, 81, nil)
		for i := 0; i < 30; i++ {
			c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), pattern(300, byte(i)))
		}
		c.run(sim.Second)
		for i := 0; i < 5; i++ {
			c.castAt(sim.Second+sim.Time(i+1)*sim.Millisecond, 1, pattern(300, byte(i)))
		}
		c.run(sim.Second + 20*sim.Millisecond)
		return c
	}

	t.Run("readmitted joiner", func(t *testing.T) {
		c := warm(t)
		rm := c.stacks[1].rm
		ps := rm.peer(3)
		// Leave the dead incarnation's row as untidy as a crash can: chunks
		// buffered past a gap (NACK timer armed), a half-reassembled
		// message, repair redirected at a flush holder, excluded.
		next := ps.recvNext
		first := rm.newMsg()
		first.Sender, first.Seq, first.Frag, first.Payload, first.Data = 3, next, fragFirst, payloadApp, []byte("half")
		rm.onData(first)
		feed(c.stacks[1], 3, next+2, payloadApp, []byte("past the gap"))
		rm.requestRepairTo(3, next+2, 2)
		ps.excluded, ps.acked = true, 0 // as excludePeer leaves them
		ps.suspected = true
		heard := ps.lastHeard
		if ps.recvBuf.len() == 0 || ps.body == nil || ps.nackTimer == nil || ps.stable == 0 || ps.roundMin == 0 ||
			rm.self.stable == 0 || heard == 0 {
			t.Fatalf("test premise broken: row not warm: %+v (own stable %d)", ps, rm.self.stable)
		}

		rm.reset(3, 0)

		if ps.recvNext != 1 || ps.maxSeen != 0 || ps.stable != 0 || ps.roundMin != 0 {
			t.Errorf("cursors after reset(3, 0): recvNext=%d maxSeen=%d stable=%d roundMin=%d, want 1 0 0 0",
				ps.recvNext, ps.maxSeen, ps.stable, ps.roundMin)
		}
		if ps.recvBuf.len() != 0 || ps.body != nil || ps.nackTimer != nil {
			t.Errorf("buffers after reset: %d chunks, body %v, nackTimer %v", ps.recvBuf.len(), ps.body != nil, ps.nackTimer != nil)
		}
		if ps.excluded || ps.repairTarget != 3 {
			t.Errorf("excluded=%v repairTarget=%d after reset, want false 3", ps.excluded, ps.repairTarget)
		}
		if ps.acked != rm.self.stable {
			t.Errorf("credit cursor seeded at %d, want my stable prefix %d", ps.acked, rm.self.stable)
		}
		if !ps.suspected || ps.lastHeard != heard {
			t.Errorf("reset touched the failure detector's columns: suspected=%v lastHeard=%v", ps.suspected, ps.lastHeard)
		}

		// At the joiner itself the cursors restart at the flush target.
		rm.reset(2, 40)
		if p2 := rm.peer(2); p2.recvNext != 41 || p2.maxSeen != 40 || p2.stable != 40 || p2.roundMin != 40 || p2.recvBuf.len() != 0 {
			t.Errorf("after reset(2, 40): %+v", p2)
		}
	})

	t.Run("own stream restart", func(t *testing.T) {
		c := warm(t)
		rm := c.stacks[1].rm
		rm.frozen = true // queue the next cast unsent
		rm.cast(payloadApp, []byte("queued"))
		if rm.sendBuf.len() == 0 || len(rm.outQ) == 0 || rm.self.stable == 0 || rm.peer(2).acked == 0 || rm.peer(3).acked == 0 {
			t.Fatalf("test premise broken: send side not warm: sendBuf=%d outQ=%d stable=%d acked=%d/%d",
				rm.sendBuf.len(), len(rm.outQ), rm.self.stable, rm.peer(2).acked, rm.peer(3).acked)
		}

		rm.resetSelf()

		self := rm.self
		if self.recvNext != 1 || self.maxSeen != 0 || self.stable != 0 || self.roundMin != 0 || self.recvBuf.len() != 0 {
			t.Errorf("own row after resetSelf: %+v", self)
		}
		if rm.sendSeq != 0 || rm.sendBuf.len() != 0 || rm.sendBufBytes != 0 || len(rm.outQ) != 0 || rm.outQBytes != 0 {
			t.Errorf("send side after resetSelf: sendSeq=%d sendBuf=%d/%dB outQ=%d/%dB",
				rm.sendSeq, rm.sendBuf.len(), rm.sendBufBytes, len(rm.outQ), rm.outQBytes)
		}
		for _, ps := range rm.peers {
			if ps.acked != 0 {
				t.Errorf("peer %d keeps credit cursor %d against the restarted stream", ps.id, ps.acked)
			}
		}
	})
}

// TestJoinerDoesNotVouchForRepairingSurvivor admits a joiner while one
// survivor lacks the tail of a flush target. Node 2 receives none of node 1's
// stream chunks from just before the join until well after node 1 and the
// joiner have installed, so it sits in membDeciding, NACKing the target's
// last chunks. The joiner's first gossip must not report those chunks as
// stable: node 1 would free them on its word, and node 2 would NACK for them
// for the rest of the run and never install — the rejoin-under-loss wedge.
// Every survivor must install the join view, the delivered sequences must
// agree, and no NACK may go unanswered.
func TestJoinerDoesNotVouchForRepairingSurvivor(t *testing.T) {
	c := newCluster(t, 3, 25, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	for r := 0; r < 10; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
		}
	}
	c.crashNode(400*sim.Millisecond, 3)

	// From deafFrom to deafUntil node 2 drops every chunk of node 1's
	// stream numbered past the last one sent before deafFrom, first
	// transmissions and repairs alike; everything else gets through.
	const deafFrom, deafUntil = 3 * sim.Second, 6 * sim.Second
	var tail uint64
	c.k.ScheduleAt(deafFrom, func() { tail = c.stacks[1].rm.sendSeq })
	deliver := c.rts[2].Deliver
	c.net.Host(2).DeliverTo(func(src NodeID, data []byte) {
		if now := c.k.Now(); now >= deafFrom && now < deafUntil && len(data) >= dataHeader && data[0] == kindData {
			var m dataMsg
			if parseDataInto(&m, data) == nil && m.Sender == 1 && m.Seq > tail {
				return
			}
		}
		deliver(src, data)
	})
	c.castAt(deafFrom+10*sim.Millisecond, 1, []byte("tail"))
	var repairing bool // node 2 still repairing once node 1 has installed the join view
	c.k.ScheduleAt(deafUntil-sim.Millisecond, func() {
		repairing = c.stacks[2].memb.state == membDeciding && len(c.stacks[1].View().Members) == 3
	})
	var joinSeq uint64
	c.rejoinNode(deafFrom+100*sim.Millisecond, 3, 3, &joinSeq)
	for r := 0; r < 10; r++ {
		for _, id := range nodes(3) {
			c.castAt(8*sim.Second+sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("p%d-%d", id, r)))
		}
	}
	c.run(15 * sim.Second)

	if !repairing {
		t.Fatal("test premise broken: node 2 was not repairing toward the join view's targets")
	}
	join := c.stacks[1].View()
	if len(join.Members) != 3 {
		t.Fatalf("node 1 ends in view %+v, want the join view", join)
	}
	for _, id := range nodes(3) {
		if v := c.stacks[id].View(); v.ID != join.ID {
			t.Fatalf("node %d ends in view %d, node 1 in view %d", id, v.ID, join.ID)
		}
		if n := c.stacks[id].Stats().NackMisses; n != 0 {
			t.Fatalf("node %d counted %d NACK misses", id, n)
		}
	}
	c.checkAgreement([]NodeID{1, 2}, -1)
	checkSuffixAgreement(t, c.delivered[1], c.delivered[3], joinSeq)
}
