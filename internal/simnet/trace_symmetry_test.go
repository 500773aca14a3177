package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// netStats snapshots every externally observable counter of one scenario
// run: per-host traffic and drops, partition drops, segment bytes, delivery
// count, and final simulated time.
type netStats struct{ summary string }

// runTraceScenario drives a fixed seeded scenario — multicast and unicast
// traffic under receiver loss, with a partition cut and heal in the middle —
// and returns the observable accounting. withTracer attaches a sink first.
func runTraceScenario(t *testing.T, withTracer bool) (netStats, int) {
	t.Helper()
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(7))
	lan := n.NewLAN(DefaultLANConfig("lan"))
	hosts := make([]*Host, 3)
	delivered := 0
	recv := make([]int, len(hosts)) // bytes each host's upcall received
	for i := range hosts {
		h, err := n.NewHost(NodeID(i+1), lan)
		if err != nil {
			t.Fatal(err)
		}
		h.SetDeliver(func(pkt *Packet) {
			delivered++
			recv[i] += len(pkt.Data)
		})
		hosts[i] = h
	}
	hosts[1].SetLoss(&RandomLoss{P: 0.3})
	n.SetGroup(1, []NodeID{1, 2, 3})
	traced := 0
	if withTracer {
		n.SetTracer(func(TraceRecord) { traced++ })
	}
	for i := 0; i < 40; i++ {
		at := sim.Time(i+1) * sim.Millisecond
		k.ScheduleAt(at, func() {
			_ = n.Multicast(1, 1, []byte{1, 2, 3, 4}, 0)
			_ = n.Send(2, 3, []byte{5, 6}, 0)
		})
	}
	k.ScheduleAt(15*sim.Millisecond, func() { n.Partition([]NodeID{3}) })
	k.ScheduleAt(30*sim.Millisecond, func() { n.Heal() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("delivered=%d cut=%d total=%d now=%v", delivered, n.PartitionDrops(), n.TotalBytes(), k.Now())
	for i, h := range hosts {
		s += fmt.Sprintf(" h%d[sent=%d recv=%d drop=%d]", h.ID(), h.Sent().Bytes(), recv[i], h.Dropped())
	}
	return netStats{summary: s}, traced
}

// TestTraceAccountingSymmetry pins the invariant that attaching a tracer
// changes nothing but the trace itself: drop, cut, and receive accounting —
// and the loss model's random draws — are byte-identical between a traced
// and an untraced run of the same seed.
func TestTraceAccountingSymmetry(t *testing.T) {
	plain, tracedCount := runTraceScenario(t, false)
	if tracedCount != 0 {
		t.Fatal("untraced run produced trace records")
	}
	traced, count := runTraceScenario(t, true)
	if count == 0 {
		t.Fatal("traced run recorded nothing; the scenario is vacuous")
	}
	if plain.summary != traced.summary {
		t.Fatalf("accounting diverged with tracer attached:\nuntraced: %s\ntraced:   %s",
			plain.summary, traced.summary)
	}
}
