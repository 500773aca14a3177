package gcs

import (
	"testing"

	"repro/internal/sim"
)

// TestUniformDeliveryGatesSequencer pins uniform delivery at the sequencer:
// a self-assigned global must not reach the application while no other
// member holds the ordering announcement. The sequencer multicasts into a
// blackout (both peers' hosts down), so its announcement reaches nobody —
// delivery at the sequencer must stall, and resume only after the peers heal
// and repair the stream (at which point their acks complete a majority).
func TestUniformDeliveryGatesSequencer(t *testing.T) {
	c := newCluster(t, 3, 41, func(cfg *Config) {
		// Far beyond the blackout window: the view must not change, or a
		// two-member (even single-member) majority would release delivery.
		cfg.failTimeout = 30 * sim.Second
	})
	c.k.ScheduleAt(sim.Second, func() {
		c.net.Host(2).SetDown(true)
		c.net.Host(3).SetDown(true)
	})
	c.castAt(sim.Second+100*sim.Millisecond, 1, []byte("uniform"))
	c.run(2 * sim.Second)
	if got := c.stacks[1].Stats().Delivered; got != 0 {
		t.Fatalf("sequencer delivered %d messages while no member held its announcement", got)
	}
	c.net.Host(2).SetDown(false)
	c.net.Host(3).SetDown(false)
	c.run(12 * sim.Second)
	c.checkAgreement(nodes(3), 1)
	if got := c.stacks[1].Stats().Delivered; got != 1 {
		t.Fatalf("sequencer delivered %d messages after the majority healed, want 1", got)
	}
}

// TestUniformDeliveryCrashLeavesNoSuffix pins the exact divergence the gate
// exists to prevent: the sequencer orders a message nobody else received and
// crashes. Before uniform delivery it would have delivered the message
// first, leaving a committed suffix the survivors — who renumber without the
// lost announcement — could never reproduce (a non-prefix log divergence).
// Now its delivered log must stay a prefix of the survivors': here, empty.
func TestUniformDeliveryCrashLeavesNoSuffix(t *testing.T) {
	c := newCluster(t, 3, 43, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	c.k.ScheduleAt(sim.Second, func() {
		c.net.Host(2).SetDown(true)
		c.net.Host(3).SetDown(true)
	})
	c.castAt(sim.Second+100*sim.Millisecond, 1, []byte("doomed"))
	c.crashNode(1500*sim.Millisecond, 1)
	c.k.ScheduleAt(2*sim.Second, func() {
		c.net.Host(2).SetDown(false)
		c.net.Host(3).SetDown(false)
	})
	c.run(15 * sim.Second)
	if got := c.stacks[1].Stats().Delivered; got != 0 {
		t.Fatalf("crashed sequencer delivered %d messages no survivor can reconstruct", got)
	}
	// Survivors agree with each other and never see the lost message.
	c.checkAgreement([]NodeID{2, 3}, 0)
	if len(c.views[2]) == 0 {
		t.Fatal("survivors never installed a view excluding the crashed sequencer")
	}
}

// TestAssignAcksReplaceGossipLatency pins the fast ack path: under ordinary
// fault-free traffic, receivers acknowledge ordering announcements directly
// (AssignAcks > 0) instead of leaving the sequencer to wait out a stability
// gossip period, and the sequencer itself never acks its own stream.
func TestAssignAcksReplaceGossipLatency(t *testing.T) {
	c := newCluster(t, 3, 47, nil)
	for i := 0; i < 10; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte("m"))
	}
	c.run(5 * sim.Second)
	c.checkAgreement(nodes(3), 10)
	if got := c.stacks[2].Stats().AssignAcks; got == 0 {
		t.Fatal("receiver never acked an ordering announcement")
	}
	if got := c.stacks[1].Stats().AssignAcks; got != 0 {
		t.Fatalf("sequencer sent %d acks for its own announcements", got)
	}
}
