package gcs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestConcurrentViewProposals drives two coordinators into overlapping view
// changes: node 1 (sequencer and coordinator) crashes; node 2 starts the
// exclusion change; node 2 then crashes before the change completes, so
// node 3 must abandon the in-flight change (dead coordinator) and run its
// own proposal. The survivors must converge on one view and identical
// delivery sequences.
func TestConcurrentViewProposals(t *testing.T) {
	c := newCluster(t, 4, 31, func(cfg *Config) {
		cfg.FailTimeout = 400 * sim.Millisecond
	})
	for i := 0; i < 10; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%4+1), []byte(fmt.Sprintf("pre%d", i)))
	}
	c.crashNode(200*sim.Millisecond, 1)
	// Node 2 will initiate the exclusion of 1 at ~600ms (FD timeout);
	// kill it just as the change gets going, leaving its proposal (and
	// possibly its decide) racing node 3's follow-up proposal.
	c.crashNode(650*sim.Millisecond, 2)
	for i := 0; i < 10; i++ {
		c.castAt(4*sim.Second+sim.Time(i+1)*10*sim.Millisecond, NodeID(i%2+3), []byte(fmt.Sprintf("post%d", i)))
	}
	c.run(15 * sim.Second)

	for _, id := range []NodeID{3, 4} {
		v := c.stacks[id].View()
		if len(v.Members) != 2 || v.Contains(1) || v.Contains(2) {
			t.Fatalf("node %d view %+v, want {3,4}", id, v)
		}
		if v.Sequencer() != 3 {
			t.Fatalf("node %d sequencer %d, want 3", id, v.Sequencer())
		}
	}
	c.checkAgreement([]NodeID{3, 4}, -1)
	if len(c.delivered[3]) < 10 {
		t.Fatalf("survivors delivered only %d messages", len(c.delivered[3]))
	}
}

// TestStaleDecideAfterNewerInstall replays a decide for an already-installed
// (older) view into a member that has since moved on: the member must
// acknowledge it (so a lagging coordinator stops retransmitting) without
// touching its current view or ordering state.
func TestStaleDecideAfterNewerInstall(t *testing.T) {
	c := newCluster(t, 3, 32, func(cfg *Config) {
		cfg.FailTimeout = 400 * sim.Millisecond
	})
	for i := 0; i < 6; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("m%d", i)))
	}
	c.crashNode(200*sim.Millisecond, 3)
	c.run(3 * sim.Second)

	st := c.stacks[1]
	v := st.View()
	if v.ID == 0 || v.Contains(3) {
		t.Fatalf("exclusion view not installed: %+v", v)
	}
	delivered := len(c.delivered[1])

	// Replay a stale decide for the already-installed view — as a lossy
	// network could after the coordinator's retransmissions — plus one
	// for the long-gone initial view.
	stale := &decideMsg{
		NewViewID: v.ID,
		Proposer:  2,
		Members:   []NodeID{1, 2},
		Targets:   []flushTarget{{Member: 3, Seq: 1, Holder: 2}},
	}
	c.k.ScheduleAt(4*sim.Second, func() {
		c.rts[1].CPUs().SubmitReal(func() {
			st.memb.onDecide(stale)
			st.memb.onDecide(&decideMsg{NewViewID: 0, Proposer: 2, Members: []NodeID{1, 2}})
		}, nil)
	})
	c.castAt(5*sim.Second, 2, []byte("after-stale"))
	c.run(8 * sim.Second)

	if got := st.View(); got.ID != v.ID || len(got.Members) != len(v.Members) {
		t.Fatalf("stale decide changed the view: %+v -> %+v", v, got)
	}
	if st.memb.state != membStable {
		t.Fatalf("stale decide left membership in state %d", st.memb.state)
	}
	if len(c.delivered[1]) != delivered+1 {
		t.Fatalf("delivery disrupted after stale decide: %d -> %d", delivered, len(c.delivered[1]))
	}
	c.checkAgreement([]NodeID{1, 2}, -1)
}

// TestRetryTickUnderSustainedLoss runs a view change under heavy receiver
// loss: proposals, flush acks, decides, and install acks all need the
// coordinator's retry loop to land. The change must still complete and the
// coordinator's retries must stop once everyone installed (proposing
// clears), rather than nagging forever.
func TestRetryTickUnderSustainedLoss(t *testing.T) {
	c := newCluster(t, 4, 33, func(cfg *Config) {
		// Long enough that 30% independent loss cannot plausibly starve a
		// live member's heartbeats (15 consecutive losses), so the only
		// suspicion is the real crash; short retransmission period so the
		// retry loop, not luck, carries the view change.
		cfg.FailTimeout = 1500 * sim.Millisecond
		cfg.RetransPeriod = 50 * sim.Millisecond
	})
	for _, id := range nodes(4) {
		c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.30})
	}
	for i := 0; i < 12; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%4+1), []byte(fmt.Sprintf("m%d", i)))
	}
	c.crashNode(300*sim.Millisecond, 4)
	c.castAt(8*sim.Second, 2, []byte("late"))
	c.run(30 * sim.Second)

	for _, id := range []NodeID{1, 2, 3} {
		v := c.stacks[id].View()
		if v.ID == 0 || v.Contains(4) || len(v.Members) != 3 {
			t.Fatalf("node %d never installed the exclusion view under loss: %+v", id, v)
		}
	}
	// The coordinator must have finished the change: no dangling
	// proposal once all survivors acked their installs.
	if c.stacks[1].memb.proposing {
		t.Fatal("coordinator still proposing long after the view installed everywhere")
	}
	c.checkAgreement([]NodeID{1, 2, 3}, -1)
	if c.stacks[1].Stats().Retransmits == 0 && c.stacks[2].Stats().Retransmits == 0 {
		t.Fatal("expected repair traffic under 30% loss")
	}
}

// TestAbandonDeadCoordinatorAlreadySuspected: a member frozen for a view
// change whose proposer it had suspected BEFORE the (retransmitted)
// proposal arrived must still abandon the change — the abandon check runs
// every failure-detector tick, not only when a fresh suspicion appears.
func TestAbandonDeadCoordinatorAlreadySuspected(t *testing.T) {
	c := newCluster(t, 3, 34, func(cfg *Config) {
		cfg.FailTimeout = 400 * sim.Millisecond
	})
	c.castAt(10*sim.Millisecond, 2, []byte("warm"))
	c.run(200 * sim.Millisecond)

	st3 := c.stacks[3]
	// Stage the race white-box: node 3 already suspects node 1, then the
	// retransmitted proposal from 1 arrives (onPropose does not consult
	// suspicions) and freezes node 3 — and node 1 is dead.
	c.k.ScheduleAt(300*sim.Millisecond, func() {
		c.rts[3].CPUs().SubmitReal(func() {
			st3.rm.peers[1].suspected = true
			st3.memb.onPropose(&proposeMsg{NewViewID: 1, Proposer: 1, Members: []NodeID{1, 2, 3}})
			if st3.memb.state != membFlushing {
				t.Error("premise broken: propose did not freeze the member")
			}
		}, nil)
	})
	c.crashNode(310*sim.Millisecond, 1)
	c.castAt(4*sim.Second, 2, []byte("after"))
	c.run(10 * sim.Second)

	if st3.memb.state != membStable {
		t.Fatalf("node 3 still frozen (state %d) behind a dead coordinator", st3.memb.state)
	}
	for _, id := range []NodeID{2, 3} {
		v := c.stacks[id].View()
		if v.Contains(1) || len(v.Members) != 2 {
			t.Fatalf("node %d never excluded the dead coordinator: %+v", id, v)
		}
	}
	c.checkAgreement([]NodeID{2, 3}, -1)
}

// deafWindow drops every datagram arriving in [from, until).
type deafWindow struct{ from, until sim.Time }

func (w deafWindow) Drop(_ *sim.RNG, now sim.Time) bool { return now >= w.from && now < w.until }

// TestFlushRepairFromNodeZero: NodeID 0 is a member like any other (under
// core's DedicatedSequencer it is the coordinator, and so usually the flush
// holder). Node 1 misses the tail of node 2's stream, node 0 has it, and
// node 2 dies before anyone repairs it: the flush names node 0 as the holder,
// and node 1 must fetch the tail from it and install the view without node 2
// — not NACK the dead owner forever.
func TestFlushRepairFromNodeZero(t *testing.T) {
	c := newClusterOf(t, []NodeID{0, 1, 2}, 35, func(cfg *Config) {
		cfg.FailTimeout = 400 * sim.Millisecond
	})
	c.net.Host(1).SetLoss(deafWindow{from: 100 * sim.Millisecond, until: 105 * sim.Millisecond})
	c.castAt(100*sim.Millisecond, 2, []byte("tail"))
	c.crashNode(105*sim.Millisecond, 2)
	c.run(5 * sim.Second)

	for _, id := range []NodeID{0, 1} {
		if v := c.stacks[id].View(); v.Contains(2) || len(v.Members) != 2 {
			t.Fatalf("node %d view %+v, want {0,1}", id, v)
		}
	}
	c.checkAgreement([]NodeID{0, 1}, 1)
}

// TestJoinRequestWireRoundTrip pins the new wire formats.
func TestJoinRequestWireRoundTrip(t *testing.T) {
	req := joinReqMsg{Node: 7, Installed: 3}
	got, err := parseJoinReq(req.marshal(nil))
	if err != nil || *got != req {
		t.Fatalf("joinReq round trip: %+v, %v", got, err)
	}
	sync := joinSyncMsg{ViewID: 9, JoinSeq: 123456}
	gs, err := parseJoinSync(sync.marshal(nil))
	if err != nil || *gs != sync {
		t.Fatalf("joinSync round trip: %+v, %v", gs, err)
	}
	pr := proposeMsg{NewViewID: 4, Proposer: 2, Members: []NodeID{1, 2}, Joiners: []NodeID{3}}
	gp, err := parsePropose(pr.marshal(nil))
	if err != nil || gp.NewViewID != 4 || len(gp.Members) != 2 || len(gp.Joiners) != 1 || gp.Joiners[0] != 3 {
		t.Fatalf("propose round trip: %+v, %v", gp, err)
	}
	dec := decideMsg{
		NewViewID: 5, Proposer: 1,
		Members: []NodeID{1, 2}, Joiners: []NodeID{3},
		Targets: []flushTarget{{Member: 3, Seq: 42, Holder: 1}},
	}
	gd, err := parseDecide(dec.marshal(nil))
	if err != nil || gd.NewViewID != 5 || len(gd.Joiners) != 1 || gd.Targets[0].Seq != 42 {
		t.Fatalf("decide round trip: %+v, %v", gd, err)
	}
	// Truncations must be rejected, not mis-parsed.
	for _, wire := range [][]byte{req.marshal(nil), sync.marshal(nil), pr.marshal(nil), dec.marshal(nil)} {
		for cut := 1; cut < len(wire); cut++ {
			switch wire[0] {
			case kindJoinReq:
				if _, err := parseJoinReq(wire[:cut]); err == nil {
					t.Fatalf("truncated joinReq (%d bytes) accepted", cut)
				}
			case kindJoinSync:
				if _, err := parseJoinSync(wire[:cut]); err == nil {
					t.Fatalf("truncated joinSync (%d bytes) accepted", cut)
				}
			case kindPropose:
				if _, err := parsePropose(wire[:cut]); err == nil {
					t.Fatalf("truncated propose (%d bytes) accepted", cut)
				}
			case kindDecide:
				if _, err := parseDecide(wire[:cut]); err == nil {
					t.Fatalf("truncated decide (%d bytes) accepted", cut)
				}
			}
		}
	}
}
