package gcs

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/csrt"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// cluster wires N protocol stacks over the centralized simulation runtime
// and a simulated LAN — the same composition the full model uses.
type cluster struct {
	t         *testing.T
	k         *sim.Kernel
	net       *simnet.Network
	rts       map[NodeID]*csrt.Runtime
	stacks    map[NodeID]*Stack
	delivered map[NodeID][]Delivery
	views     map[NodeID][]View
}

func newCluster(t *testing.T, n int, seed int64, tweak func(*Config)) *cluster {
	t.Helper()
	return newClusterOf(t, nodes(n), seed, tweak)
}

// newClusterOf is newCluster over explicit member IDs.
func newClusterOf(t *testing.T, members []NodeID, seed int64, tweak func(*Config)) *cluster {
	t.Helper()
	k := sim.NewKernel()
	rng := sim.NewRNG(seed)
	net := simnet.NewNetwork(k, rng.Fork("net"))
	lan := net.NewLAN(simnet.DefaultLANConfig("lan0"))
	net.SetGroup(1, members)
	c := &cluster{
		t:         t,
		k:         k,
		net:       net,
		rts:       make(map[NodeID]*csrt.Runtime),
		stacks:    make(map[NodeID]*Stack),
		delivered: make(map[NodeID][]Delivery),
		views:     make(map[NodeID][]View),
	}
	for _, id := range members {
		host, err := net.NewHost(id, lan)
		if err != nil {
			t.Fatal(err)
		}
		port := net.Port(id, 1400)
		rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, port, csrt.DefaultCostParams(), rng.Fork(fmt.Sprintf("rt-%d", id)))
		rt.Bind(csrt.NewCPUSet(1, k, nil))
		host.DeliverTo(rt.Deliver)
		cfg := Config{Self: id, Members: members, Group: 1, UseMulticast: true}
		if tweak != nil {
			tweak(&cfg)
		}
		st, err := New(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodeID := id
		st.OnDeliver(func(d Delivery) {
			c.delivered[nodeID] = append(c.delivered[nodeID], keep(d))
		})
		st.OnViewChange(func(v View) {
			c.views[nodeID] = append(c.views[nodeID], v)
		})
		c.rts[id] = rt
		c.stacks[id] = st
		st.Start()
	}
	return c
}

// keep copies a delivery's payload so the test may hold it past the upcall:
// the stack reuses the bytes as soon as the upcall returns.
func keep(d Delivery) Delivery {
	d.Payload = bytes.Clone(d.Payload)
	return d
}

// castAt schedules an application multicast from a node at a simulated time.
func (c *cluster) castAt(at sim.Time, id NodeID, payload []byte) {
	c.k.ScheduleAt(at, func() {
		c.rts[id].CPUs().SubmitReal(func() { c.stacks[id].Multicast(payload) }, nil)
	})
}

// run advances the cluster to until, then holds every stack's free lists to
// the buffers it still holds (checkLent).
func (c *cluster) run(until sim.Time) {
	c.t.Helper()
	if err := c.k.RunUntil(until); err != nil {
		c.t.Fatal(err)
	}
	for id, st := range c.stacks {
		checkLent(c.t, id, st)
	}
}

// checkAgreement verifies every listed node delivered the identical
// sequence.
func (c *cluster) checkAgreement(nodes []NodeID, wantCount int) {
	c.t.Helper()
	ref := c.delivered[nodes[0]]
	if wantCount >= 0 && len(ref) != wantCount {
		c.t.Fatalf("node %d delivered %d messages, want %d", nodes[0], len(ref), wantCount)
	}
	for _, id := range nodes[1:] {
		got := c.delivered[id]
		if len(got) != len(ref) {
			c.t.Fatalf("node %d delivered %d, node %d delivered %d", id, len(got), nodes[0], len(ref))
		}
		for i := range ref {
			if got[i].Global != ref[i].Global || got[i].Sender != ref[i].Sender || !bytes.Equal(got[i].Payload, ref[i].Payload) {
				c.t.Fatalf("node %d delivery %d = %+v, node %d = %+v", id, i, got[i], nodes[0], ref[i])
			}
		}
	}
}

func nodes(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(i + 1)
	}
	return out
}

func TestTotalOrderBasic(t *testing.T) {
	c := newCluster(t, 3, 1, nil)
	for i := 0; i < 10; i++ {
		sender := NodeID(i%3 + 1)
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, sender, []byte(fmt.Sprintf("m%d", i)))
	}
	c.run(2 * sim.Second)
	c.checkAgreement(nodes(3), 10)
	// Global sequence numbers must be 1..10 in order.
	for i, d := range c.delivered[1] {
		if d.Global != uint64(i+1) {
			t.Fatalf("delivery %d has global %d", i, d.Global)
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	c := newCluster(t, 3, 2, nil)
	c.castAt(10*sim.Millisecond, 2, []byte("hello"))
	c.run(1 * sim.Second)
	for _, id := range nodes(3) {
		if len(c.delivered[id]) != 1 || c.delivered[id][0].Sender != 2 {
			t.Fatalf("node %d deliveries: %+v", id, c.delivered[id])
		}
	}
}

func TestFIFOPerSenderPreserved(t *testing.T) {
	c := newCluster(t, 3, 3, nil)
	// Node 1 casts 20 messages back-to-back.
	for i := 0; i < 20; i++ {
		c.castAt(sim.Time(i+1)*sim.Millisecond, 1, []byte{byte(i)})
	}
	c.run(2 * sim.Second)
	c.checkAgreement(nodes(3), 20)
	for i, d := range c.delivered[2] {
		if d.Payload[0] != byte(i) {
			t.Fatalf("FIFO violated: position %d has payload %d", i, d.Payload[0])
		}
	}
}

func TestFragmentationLargeMessage(t *testing.T) {
	c := newCluster(t, 3, 4, nil)
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	c.castAt(10*sim.Millisecond, 1, big)
	c.run(1 * sim.Second)
	c.checkAgreement(nodes(3), 1)
	if !bytes.Equal(c.delivered[3][0].Payload, big) {
		t.Fatal("fragmented payload corrupted")
	}
}

func TestConcurrentSendersAgree(t *testing.T) {
	c := newCluster(t, 3, 5, nil)
	// All three cast at the same instant, repeatedly.
	count := 0
	for r := 0; r < 15; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*5*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			count++
		}
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), count)
}

func TestLossRecoveryRandom(t *testing.T) {
	c := newCluster(t, 3, 6, nil)
	for _, id := range nodes(3) {
		c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.10})
	}
	count := 0
	for r := 0; r < 30; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			count++
		}
	}
	c.run(20 * sim.Second)
	c.checkAgreement(nodes(3), count)
	if c.stacks[1].Stats().Retransmits == 0 && c.stacks[2].Stats().Retransmits == 0 && c.stacks[3].Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestLossRecoveryBursty(t *testing.T) {
	c := newCluster(t, 3, 7, nil)
	for _, id := range nodes(3) {
		c.net.Host(id).SetLoss(&simnet.BurstyLoss{Rate: 0.10, MeanBurst: 50 * sim.Millisecond})
	}
	count := 0
	for r := 0; r < 30; r++ {
		for _, id := range nodes(3) {
			c.castAt(sim.Time(r+1)*10*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			count++
		}
	}
	c.run(20 * sim.Second)
	c.checkAgreement(nodes(3), count)
}

func TestStabilityGarbageCollection(t *testing.T) {
	c := newCluster(t, 3, 8, nil)
	for i := 0; i < 10; i++ {
		c.castAt(sim.Time(i+1)*5*sim.Millisecond, 1, make([]byte, 500))
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), 10)
	for _, id := range nodes(3) {
		rm := c.stacks[id].rm
		if rm.sendBufBytes != 0 || len(rm.sendBuf) != 0 {
			t.Fatalf("node %d send buffer not GC'd: %d bytes, %d msgs",
				id, rm.sendBufBytes, len(rm.sendBuf))
		}
		if rm.peers[1].stable == 0 {
			t.Fatalf("node %d learned no stability for sender 1", id)
		}
	}
}

// TestNackMissesCounted pins the one request the reliable layer drops without
// an answer: a NACK for a chunk the asked member does not hold — its own
// stream's, already garbage-collected as stable, or another member's, asked
// of a relay whose receive buffer was collected too — counts one miss and
// sends nothing. A fault-free run never produces one.
func TestNackMissesCounted(t *testing.T) {
	c := newCluster(t, 3, 8, nil)
	for i := 0; i < 10; i++ {
		c.castAt(sim.Time(i+1)*5*sim.Millisecond, 1, make([]byte, 500))
	}
	c.run(3 * sim.Second)
	c.checkAgreement(nodes(3), 10)
	for _, id := range nodes(3) {
		if n := c.stacks[id].Stats().NackMisses; n != 0 {
			t.Fatalf("fault-free run: node %d counted %d NACK misses", id, n)
		}
	}
	ask := &nackMsg{Target: 1, Ranges: []seqRange{{From: 3, To: 3}}}
	for _, tc := range []struct {
		name  string
		asked NodeID
	}{{"own stream", 1}, {"relay", 3}} {
		st := c.stacks[tc.asked]
		if _, held := st.rm.sendBuf[3]; held || len(st.rm.peers[1].recvBuf) != 0 {
			t.Fatalf("%s: test premise broken: node %d still holds chunk 3 of stream 1", tc.name, tc.asked)
		}
		before, sent := st.Stats(), c.net.Host(tc.asked).Sent().Bytes()
		st.rm.onNack(2, ask)
		after := st.Stats()
		if after.NackMisses != before.NackMisses+1 {
			t.Errorf("%s: %d misses counted for one uncollectable chunk", tc.name, after.NackMisses-before.NackMisses)
		}
		if after.Retransmits != before.Retransmits || c.net.Host(tc.asked).Sent().Bytes() != sent {
			t.Errorf("%s: a chunk the member does not hold was answered", tc.name)
		}
	}
}

func TestBufferShareBlocksThenDrains(t *testing.T) {
	// Tiny buffer pool: casts must block on the share and recover as
	// stability advances.
	c := newCluster(t, 3, 9, func(cfg *Config) {
		cfg.BufferBytes = 9 * 1024 // 3 KiB per member
		cfg.StabilityPeriod = 5 * sim.Millisecond
	})
	for i := 0; i < 20; i++ {
		c.castAt(10*sim.Millisecond, 1, make([]byte, 1000)) // all at once
	}
	c.run(10 * sim.Second)
	c.checkAgreement(nodes(3), 20)
	if c.stacks[1].Stats().Blocked == 0 {
		t.Fatal("expected flow-control blocking with a tiny buffer pool")
	}
	if c.stacks[1].Stats().BlockedTime <= 0 {
		t.Fatal("expected nonzero blocked time")
	}
}

func TestCrashNonSequencerInstallsNewView(t *testing.T) {
	c := newCluster(t, 3, 10, func(cfg *Config) {
		cfg.FailTimeout = 500 * sim.Millisecond
	})
	for i := 0; i < 5; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, 1, []byte(fmt.Sprintf("pre%d", i)))
	}
	// Crash node 3 (not the sequencer, which is node 1) at 200ms.
	c.k.ScheduleAt(200*sim.Millisecond, func() {
		c.rts[3].Crash()
		c.net.Host(3).SetDown(true)
	})
	// Traffic after the crash.
	for i := 0; i < 5; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond+2*sim.Second, 2, []byte(fmt.Sprintf("post%d", i)))
	}
	c.run(10 * sim.Second)
	for _, id := range []NodeID{1, 2} {
		v := c.stacks[id].View()
		if v.ID == 0 || len(v.Members) != 2 || v.Contains(3) {
			t.Fatalf("node %d view = %+v, want {1,2}", id, v)
		}
		if len(c.views[id]) == 0 {
			t.Fatalf("node %d never saw a view change callback", id)
		}
	}
	c.checkAgreement([]NodeID{1, 2}, 10)
}

func TestCrashSequencerReplacedAndOrderContinues(t *testing.T) {
	c := newCluster(t, 3, 11, func(cfg *Config) {
		cfg.FailTimeout = 500 * sim.Millisecond
	})
	for i := 0; i < 5; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, 2, []byte(fmt.Sprintf("pre%d", i)))
	}
	// Crash node 1: the sequencer.
	c.k.ScheduleAt(200*sim.Millisecond, func() {
		c.rts[1].Crash()
		c.net.Host(1).SetDown(true)
	})
	for i := 0; i < 5; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond+2*sim.Second, 3, []byte(fmt.Sprintf("post%d", i)))
	}
	c.run(10 * sim.Second)
	for _, id := range []NodeID{2, 3} {
		v := c.stacks[id].View()
		if v.Sequencer() != 2 {
			t.Fatalf("node %d sequencer = %d, want 2", id, v.Sequencer())
		}
	}
	c.checkAgreement([]NodeID{2, 3}, 10)
	// Globals must be gap-free.
	for i, d := range c.delivered[2] {
		if d.Global != uint64(i+1) {
			t.Fatalf("global sequence has gaps: position %d = %d", i, d.Global)
		}
	}
}

func TestCrashDuringHeavyTrafficAgreement(t *testing.T) {
	c := newCluster(t, 5, 12, func(cfg *Config) {
		cfg.FailTimeout = 400 * sim.Millisecond
	})
	for r := 0; r < 40; r++ {
		for _, id := range nodes(5) {
			c.castAt(sim.Time(r+1)*5*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
		}
	}
	c.k.ScheduleAt(100*sim.Millisecond, func() {
		c.rts[4].Crash()
		c.net.Host(4).SetDown(true)
	})
	c.run(15 * sim.Second)
	// Survivors must agree on a common sequence (count depends on how
	// many of node 4's casts made it out).
	c.checkAgreement([]NodeID{1, 2, 3, 5}, -1)
	if len(c.delivered[1]) < 4*40 {
		t.Fatalf("only %d messages delivered; survivors' traffic lost", len(c.delivered[1]))
	}
}

func TestUnicastFallbackMode(t *testing.T) {
	c := newCluster(t, 3, 13, func(cfg *Config) {
		cfg.UseMulticast = false
	})
	for i := 0; i < 6; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(i%3+1), []byte{byte(i)})
	}
	c.run(2 * sim.Second)
	c.checkAgreement(nodes(3), 6)
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Delivery {
		c := newCluster(t, 3, 42, nil)
		for _, id := range nodes(3) {
			c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 0.05})
		}
		for r := 0; r < 20; r++ {
			for _, id := range nodes(3) {
				c.castAt(sim.Time(r+1)*7*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, r)))
			}
		}
		c.run(10 * sim.Second)
		return c.delivered[2]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged in count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Global != b[i].Global || a[i].Sender != b[i].Sender || !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	rng := sim.NewRNG(1)
	net := simnet.NewNetwork(k, rng)
	lan := net.NewLAN(simnet.DefaultLANConfig("l"))
	if _, err := net.NewHost(1, lan); err != nil {
		t.Fatal(err)
	}
	rt := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 1400), csrt.CostParams{}, rng)
	rt.Bind(csrt.NewCPUSet(1, k, nil))
	if _, err := New(rt, Config{Self: 1, Members: nil}); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := New(rt, Config{Self: 9, Members: []runtimeapi.NodeID{1, 2}}); err == nil {
		t.Fatal("self not in member list accepted")
	}
	tiny := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 10), csrt.CostParams{}, rng)
	if _, err := New(tiny, Config{Self: 1, Members: []runtimeapi.NodeID{1}}); err == nil {
		t.Fatal("absurd port MTU accepted")
	}
}
