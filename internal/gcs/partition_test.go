package gcs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestPrimaryComponentMajorityContinuesMinorityWedges is the split-brain
// regression: under a network partition the majority side must install a new
// view and keep delivering, while the minority member wedges on quorum loss
// and its delivery sequence stays a prefix of the majority's.
func TestPrimaryComponentMajorityContinuesMinorityWedges(t *testing.T) {
	c := newCluster(t, 3, 11, nil)

	// Pre-partition traffic, delivered everywhere.
	c.castAt(100*sim.Millisecond, 2, []byte("pre-1"))
	c.castAt(200*sim.Millisecond, 3, []byte("pre-2"))

	c.k.ScheduleAt(2*sim.Second, func() { c.net.Partition([]simnet.NodeID{3}) })

	// Post-partition traffic from the majority side; node 3 must never
	// deliver it.
	for i := 0; i < 5; i++ {
		c.castAt(4*sim.Second+sim.Time(i)*100*sim.Millisecond, 1, []byte(fmt.Sprintf("post-%d", i)))
	}
	// Heal after the failure detector has fired on both sides; the wedged
	// minority must stay silent rather than rejoin with a stale view.
	c.k.ScheduleAt(8*sim.Second, func() { c.net.Heal() })
	c.run(12 * sim.Second)

	for _, id := range []NodeID{1, 2} {
		if got := c.stacks[id].View().Members; len(got) != 2 {
			t.Fatalf("majority member %d view = %v, want {1 2}", id, got)
		}
		if c.stacks[id].Stopped() {
			t.Fatalf("majority member %d wedged", id)
		}
	}
	if !c.stacks[3].Stopped() {
		t.Fatal("minority member did not wedge on quorum loss")
	}
	if c.stacks[3].Stats().QuorumLosses != 1 {
		t.Fatalf("minority quorum losses = %d, want 1", c.stacks[3].Stats().QuorumLosses)
	}

	maj, min := c.delivered[1], c.delivered[3]
	if len(c.delivered[2]) != len(maj) {
		t.Fatalf("majority members delivered %d vs %d messages", len(maj), len(c.delivered[2]))
	}
	if len(maj) != 7 {
		t.Fatalf("majority delivered %d messages, want 7", len(maj))
	}
	if len(min) >= len(maj) {
		t.Fatalf("minority delivered %d messages, not a strict prefix of the majority's %d", len(min), len(maj))
	}
	for i := range min {
		if string(min[i].Payload) != string(maj[i].Payload) || min[i].Global != maj[i].Global {
			t.Fatalf("minority delivery %d = (%d, %q), majority = (%d, %q)",
				i, min[i].Global, min[i].Payload, maj[i].Global, maj[i].Payload)
		}
	}
}

// TestLoneSurvivorWedges: the rule holds without a partition too. When the
// peer of a 2-member group crashes, the survivor hears from only half of its
// view, so it wedges instead of installing the singleton view {1} that the
// paper's crash-only failure detector would have allowed.
func TestLoneSurvivorWedges(t *testing.T) {
	c := newCluster(t, 2, 12, nil)
	c.k.ScheduleAt(sim.Second, func() {
		c.stacks[2].Stop()
		c.net.Host(2).SetDown(true)
	})
	c.run(5 * sim.Second)
	c.checkWedged(1, 2)
}

// TestOneSidedLossWedgesMinority: loss alone, with no partition and no
// crash, makes member 3 hear nobody for two seconds, so it suspects both
// peers. It must wedge rather than install {3} and order its own casts,
// while members 1 and 2 exclude it and agree on everything they deliver.
func TestOneSidedLossWedgesMinority(t *testing.T) {
	c := newCluster(t, 3, 61, nil)
	c.k.ScheduleAt(sim.Second, func() { c.net.Host(3).SetLoss(&simnet.RandomLoss{P: 1}) })
	c.k.ScheduleAt(3*sim.Second, func() { c.net.Host(3).SetLoss(nil) })
	for i := 0; i < 60; i++ {
		c.castAt(sim.Time(i)*100*sim.Millisecond, NodeID(i%3+1), []byte(fmt.Sprintf("m%d", i)))
	}
	c.run(10 * sim.Second)

	c.checkWedged(3, 1, 2)
	for _, id := range []NodeID{1, 2} {
		if got := c.stacks[id].View().Members; len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("member %d view = %v, want {1 2}", id, got)
		}
	}
	c.checkAgreement([]NodeID{1, 2}, -1)
}

// checkWedged requires member id to have halted on exactly one quorum loss
// without ever installing a view that lacks one of peers.
func (c *cluster) checkWedged(id NodeID, peers ...NodeID) {
	c.t.Helper()
	if !c.stacks[id].Stopped() {
		c.t.Fatalf("member %d did not wedge on quorum loss", id)
	}
	if got := c.stacks[id].Stats().QuorumLosses; got != 1 {
		c.t.Fatalf("member %d quorum losses = %d, want 1", id, got)
	}
	for _, v := range c.views[id] {
		for _, p := range peers {
			if !v.Contains(p) {
				c.t.Fatalf("member %d installed view %v without member %d", id, v.Members, p)
			}
		}
	}
}
