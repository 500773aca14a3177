package gcs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkTablesDrained asserts the ordering layer holds nothing once traffic
// has quiesced: the message table and its order index are empty at a live
// stack and nil at a halted one. BufferedMessages cannot stand in for this —
// it counts bodies and chunks, not records that hold only an assignment.
func checkTablesDrained(t *testing.T, id NodeID, st *Stack) {
	t.Helper()
	to := st.to
	if st.Stopped() {
		if to.msgs != nil || to.order.slots != nil {
			t.Fatalf("halted node %d keeps its ordering tables", id)
		}
		return
	}
	if len(to.msgs) != 0 || to.order.len() != 0 {
		t.Fatalf("node %d leaks ordering state after full delivery: msgs=%d order=%d",
			id, len(to.msgs), to.order.len())
	}
}

// TestTotalOrderMapsDrainAfterDelivery pins the ordering layer's memory
// behaviour: once every message is delivered, skipped or purged, the message
// table and the order index are empty at every live member — including the
// sequencer, whose self-heard assignment announcements arrive after it has
// already delivered the messages (a path that once re-inserted, and leaked,
// a record per sequenced message) — and a halted member drops both.
func TestTotalOrderMapsDrainAfterDelivery(t *testing.T) {
	const msgs = 50
	burst := func(c *cluster, from sim.Time, senders int, tag string) {
		for i := 0; i < msgs; i++ {
			c.castAt(from+sim.Time(i+1)*5*sim.Millisecond, NodeID(i%senders+1), []byte(fmt.Sprintf("%s%d", tag, i)))
		}
	}

	t.Run("fault-free", func(t *testing.T) {
		c := newCluster(t, 3, 31, nil)
		burst(c, 0, 3, "m")
		c.run(5 * sim.Second)
		c.checkAgreement(nodes(3), msgs)
		for id, st := range c.stacks {
			checkTablesDrained(t, id, st)
		}
	})

	// With tentative delivery every record also carries an arrival index.
	t.Run("optimistic", func(t *testing.T) {
		c, opts := newOptCluster(t, 3, 31)
		burst(c, 0, 3, "m")
		c.run(5 * sim.Second)
		c.checkAgreement(nodes(3), msgs)
		for id, st := range c.stacks {
			if len(opts[id]) != msgs {
				t.Fatalf("node %d made %d tentative deliveries, want %d", id, len(opts[id]), msgs)
			}
			checkTablesDrained(t, id, st)
		}
	})

	// Messages of the crashed member reach node 2 after its flush ack —
	// beyond the flush target, so nobody can order them: the install purges
	// the records (telling the optimistic consumer, in message order, since
	// each discard schedules work) instead of pinning them.
	t.Run("purged beyond the flush target", func(t *testing.T) {
		const lateMsgs = 6
		c := newCluster(t, 3, 32, func(cfg *Config) { cfg.failTimeout = 500 * sim.Millisecond })
		burst(c, 0, 3, "pre")
		c.crashNode(300*sim.Millisecond, 3)
		st2 := c.stacks[2]
		var discarded []OptDelivery
		st2.OnOptimistic(func(OptDelivery) {})
		st2.OnOptimisticDiscard(func(d OptDelivery) { discarded = append(discarded, d) })
		late := uint64(0)
		for at := 500 * sim.Millisecond; at < 3*sim.Second; at += 20 * sim.Microsecond {
			c.k.ScheduleAt(at, func() {
				if late == 0 && st2.rm.frozen {
					late = st2.rm.contiguous(3) + 1
					for i := range uint64(lateMsgs) {
						feed(st2, 3, late+i, payloadApp, []byte("late"))
					}
				}
			})
		}
		burst(c, 4*sim.Second, 2, "post")
		c.run(10 * sim.Second)
		if late == 0 {
			t.Fatal("test premise broken: node 2 was never observed frozen")
		}
		if len(discarded) != lateMsgs {
			t.Fatalf("discards at node 2 = %+v, want the %d late messages", discarded, lateMsgs)
		}
		for i, d := range discarded {
			if d.Sender != 3 || d.MsgID != late+uint64(i) {
				t.Fatalf("discard %d at node 2 = (%d, %d), want (3, %d): discards in message order", i, d.Sender, d.MsgID, late+uint64(i))
			}
		}
		c.checkAgreement([]NodeID{1, 2}, -1)
		for id, st := range c.stacks {
			checkTablesDrained(t, id, st)
		}
	})

	// The joiner's catch-up cursor skips records instead of delivering them.
	t.Run("crash and rejoin", func(t *testing.T) {
		c := newCluster(t, 3, 33, func(cfg *Config) { cfg.failTimeout = 500 * sim.Millisecond })
		burst(c, 0, 3, "pre")
		dead := c.stacks[3]
		c.crashNode(300*sim.Millisecond, 3)
		burst(c, 3*sim.Second, 2, "mid")
		var joinSeq uint64
		c.rejoinNode(5*sim.Second, 3, 3, &joinSeq)
		burst(c, 8*sim.Second, 3, "post")
		c.run(15 * sim.Second)
		if !c.stacks[3].Joined() {
			t.Fatal("joiner stack never finished joining")
		}
		checkSuffixAgreement(t, c.delivered[1], c.delivered[3], joinSeq)
		checkTablesDrained(t, 3, dead)
		for id, st := range c.stacks {
			checkTablesDrained(t, id, st)
		}
	})
}
