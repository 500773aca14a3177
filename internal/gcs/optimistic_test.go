package gcs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// optCluster wires OnOptimistic alongside the regular delivery.
func newOptCluster(t *testing.T, n int, seed int64) (*cluster, map[NodeID][]OptDelivery) {
	t.Helper()
	c := newCluster(t, n, seed, nil)
	opts := make(map[NodeID][]OptDelivery)
	for id, st := range c.stacks {
		nodeID := id
		st.OnOptimistic(func(d OptDelivery) {
			d.Payload = bytes.Clone(d.Payload) // held past the final delivery
			opts[nodeID] = append(opts[nodeID], d)
		})
	}
	return c, opts
}

func TestOptimisticDeliveryPrecedesFinal(t *testing.T) {
	c, opts := newOptCluster(t, 3, 61)
	for i := 0; i < 20; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte{byte(i)})
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), 20)
	for _, id := range nodes(3) {
		if len(opts[id]) != 20 {
			t.Fatalf("node %d optimistic deliveries = %d, want 20", id, len(opts[id]))
		}
		if c.stacks[id].Stats().Optimistic != 20 {
			t.Fatalf("node %d optimistic stat = %d", id, c.stacks[id].Stats().Optimistic)
		}
		// Every finally-delivered message was delivered optimistically
		// with identical payload.
		seen := map[string]bool{}
		for _, o := range opts[id] {
			seen[fmt.Sprintf("%d-%x", o.Sender, o.Payload)] = true
		}
		for _, d := range c.delivered[id] {
			if !seen[fmt.Sprintf("%d-%x", d.Sender, d.Payload)] {
				t.Fatalf("node %d: final delivery without optimistic: %+v", id, d)
			}
		}
	}
}

// Regression for the optimistic upcall wiring: in a fault-free run the
// upcall fires exactly once per final delivery, and the tentative sequence
// is identical — element by element — to the final total order.
func TestOptimisticOrderEqualsFinalOrderFaultFree(t *testing.T) {
	c, opts := newOptCluster(t, 3, 64)
	for i := 0; i < 25; i++ {
		c.castAt(sim.Time(i+1)*15*sim.Millisecond, NodeID(i%3+1), []byte{byte(i), byte(i >> 4)})
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), 25)
	for _, id := range nodes(3) {
		finals := c.delivered[id]
		tents := opts[id]
		if len(tents) != len(finals) {
			t.Fatalf("node %d: %d tentative vs %d final deliveries", id, len(tents), len(finals))
		}
		for i := range finals {
			if tents[i].Sender != finals[i].Sender || !bytes.Equal(tents[i].Payload, finals[i].Payload) {
				t.Fatalf("node %d position %d: tentative (%d,%x) != final (%d,%x)",
					id, i, tents[i].Sender, tents[i].Payload, finals[i].Sender, finals[i].Payload)
			}
		}
		if m := c.stacks[id].Stats().Mispredicted; m != 0 {
			t.Fatalf("node %d: %d mispredictions in a fault-free run", id, m)
		}
	}
}

// On an idle LAN with paced senders, arrival order matches total order: no
// mispredictions.
func TestOptimisticNoMispredictionsWhenPaced(t *testing.T) {
	c, _ := newOptCluster(t, 3, 62)
	for i := 0; i < 30; i++ {
		c.castAt(sim.Time(i+1)*20*sim.Millisecond, NodeID(i%3+1), []byte{byte(i)})
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), 30)
	for _, id := range nodes(3) {
		if m := c.stacks[id].Stats().Mispredicted; m != 0 {
			t.Fatalf("node %d mispredictions = %d on an idle LAN", id, m)
		}
	}
}

// Under loss, retransmitted messages arrive out of order: mispredictions
// must be detected, while the final order stays consistent.
func TestOptimisticMispredictionsUnderLoss(t *testing.T) {
	c, _ := newOptCluster(t, 3, 63)
	for _, id := range nodes(3) {
		c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.15})
	}
	total := 0
	for r := 0; r < 40; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*5*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			total++
		}
	}
	c.run(30 * sim.Second)
	c.checkAgreement(nodes(3), total)
	mis := int64(0)
	for _, id := range nodes(3) {
		mis += c.stacks[id].Stats().Mispredicted
	}
	if mis == 0 {
		t.Fatal("expected mispredictions under 15% loss")
	}
}
