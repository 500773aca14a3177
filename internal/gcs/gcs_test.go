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
		if rm.sendBufBytes != 0 || rm.sendBuf.len() != 0 {
			t.Fatalf("node %d send buffer not GC'd: %d bytes, %d msgs",
				id, rm.sendBufBytes, rm.sendBuf.len())
		}
		if rm.peer(1).stable == 0 {
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
		if _, held := st.rm.sendBuf.get(3); held || st.rm.peer(1).recvBuf.len() != 0 {
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

// TestBufferShareBlocksThenDrains drives both phases of the sender's flow
// control. A tiny pool blocks casts on the buffer share until stability
// frees it (phase two). A large pool lets a burst past the 120 KB rate
// bucket stay inside the share and the 256-chunk window, so the rate timer
// (phase one) paces it: its last chunk leaves no earlier than the bucket's
// deficit at 6 MB/s after the cast.
func TestBufferShareBlocksThenDrains(t *testing.T) {
	for _, tc := range []struct {
		name        string
		bufferBytes int
		at          sim.Time
		msgs, size  int
		rate        bool
	}{
		{name: "tiny-pool", bufferBytes: 9 * 1024, at: 10 * sim.Millisecond, msgs: 20, size: 1000}, // 3 KiB per member
		// By 100 ms the bucket is full; the burst is about 260 KB.
		{name: "rate-bucket", bufferBytes: 3 << 20, at: 100 * sim.Millisecond, msgs: 20, size: 13_000, rate: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3, 9, func(cfg *Config) {
				cfg.BufferBytes = tc.bufferBytes
				cfg.stabilityPeriod = 5 * sim.Millisecond
			})
			for i := 0; i < tc.msgs; i++ {
				c.castAt(tc.at, 1, make([]byte, tc.size)) // all at once
			}
			rm := c.stacks[1].rm
			rateWaiting := false
			if tc.rate {
				burst, bucket := tc.msgs*tc.size, rateBps/50
				if burst <= bucket || burst > rm.share() || burst/(maxDatagram-dataHeader) >= sendWindow {
					t.Fatalf("a %d B burst must pass the %d B bucket inside the %d B share and the window", burst, bucket, rm.share())
				}
				earliest := tc.at + sim.FromSeconds(float64(burst-bucket)/rateBps)
				c.k.ScheduleAt(earliest-1, func() {
					if rm.outHead == len(rm.outQ) {
						t.Errorf("the burst's last chunk left before %v, the rate bucket's earliest", earliest)
					}
					rateWaiting = rm.rateArmed
				})
			}
			c.run(10 * sim.Second)
			c.checkAgreement(nodes(3), tc.msgs)
			st := c.stacks[1].Stats()
			if st.Blocked == 0 {
				t.Fatal("expected flow-control blocking")
			}
			if st.BlockedTime <= 0 {
				t.Fatal("expected nonzero blocked time")
			}
			// Stop on a timer that has fired reports false.
			if tc.rate && (!rateWaiting || rm.rateTimer.Stop()) {
				t.Fatalf("the rate timer was not waiting on the queued burst, or never fired (waiting: %v)", rateWaiting)
			}
		})
	}
}

// TestAssignWindowDefersThenDrains drives the sequencer's assign-window
// throttle. While hosts 2-5 drop every arrival, the sequencer holds every
// body it gets but no majority holds its announcements, so it delivers
// nothing. Each other member's send window lets 256 of its casts out, 1 024
// in all; with the sequencer's own casts the assigned-but-undelivered span
// reaches assignWindow and later bodies wait in deferred. After the heal
// delivery catches up, drainDeferred assigns them, and every member delivers
// every message in one order.
func TestAssignWindowDefersThenDrains(t *testing.T) {
	const senders, casts = 5, 300
	const heal = 2 * sim.Second
	c := newCluster(t, 5, 13, func(cfg *Config) {
		cfg.failTimeout = 30 * sim.Second // no view change during the blackout
	})
	for _, id := range nodes(senders) {
		if id != 1 {
			c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 1})
			c.k.ScheduleAt(heal, func() { c.net.Host(id).SetLoss(nil) })
		}
		for i := 0; i < casts; i++ {
			c.castAt(100*sim.Millisecond+sim.Time(i)*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, i)))
		}
	}
	c.run(20 * sim.Second)
	if n := c.stacks[1].Stats().AssignDeferred; n == 0 {
		t.Fatal("the sequencer never deferred an assignment")
	}
	c.checkAgreement(nodes(5), senders*casts)
	if d := c.stacks[1].to.deferred; len(d) != 0 {
		t.Fatalf("%d assignments still deferred at the end", len(d))
	}
}

// TestBlackoutRepairStorm pins the cost of a flush-time repair after a
// receive blackout. Member 9 of nine crashes at 50 ms; members 2–8 drop every
// packet they receive until 1 s, and only the sequencer, whose failure
// detector waits 500 ms (the others 30 s), suspects member 9. Its flush
// makes it the repair holder of every stream, and once the blackout ends
// each survivor NACKs each stream to it every retransPeriod while the gap
// lasts. The sequencer answers every NACK with every chunk of its ranges
// that it holds, charging costPerRetrans each, so the NACKs of about two
// seconds queue some forty seconds of retransmission on its one CPU: the
// survivors have every chunk by 4 s and stop asking, but the sequencer
// delivers nothing and its casts stay blocked until the backlog drains.
// Every cast is still delivered in one order. The figures are pinned as
// they are; a receiver that backs off while no repair arrives cuts them
// about fourfold but moves lossy_rejoin's fingerprint (ROADMAP item 22).
func TestBlackoutRepairStorm(t *testing.T) {
	const n, casts = 9, 300
	c := newCluster(t, n, 13, func(cfg *Config) {
		cfg.failTimeout = 30 * sim.Second
		if cfg.Self == 1 {
			cfg.failTimeout = 500 * sim.Millisecond
		}
	})
	c.crashNode(50*sim.Millisecond, n)
	for _, id := range nodes(n - 1) {
		if id != 1 {
			c.net.Host(id).SetLoss(&simnet.RandomLoss{P: 1})
			c.k.ScheduleAt(sim.Second, func() { c.net.Host(id).SetLoss(nil) })
		}
		for i := 0; i < casts; i++ {
			c.castAt(100*sim.Millisecond+sim.Time(i)*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, i)))
		}
	}
	var idle int64 // the sequencer's deliveries by 20 s
	c.k.ScheduleAt(20*sim.Second, func() { idle = c.stacks[1].Stats().Delivered })
	c.run(60 * sim.Second)
	c.checkAgreement(nodes(n-1), (n-1)*casts)
	var nacks int64
	for _, id := range nodes(n - 1)[1:] {
		nacks += c.stacks[id].Stats().Nacks
	}
	seq := c.stacks[1].Stats()
	if seq.Sent != 660 || seq.Retransmits != 262411 || nacks != 1046 || idle != 0 || seq.BlockedTime/sim.Millisecond != 43057 {
		t.Fatalf("sequencer: %d chunks sent, %d retransmitted for %d NACKs, %d delivered by 20 s, blocked %v",
			seq.Sent, seq.Retransmits, nacks, idle, seq.BlockedTime)
	}
}

// TestInstallHonoursAssignWindow crashes one of nine members before anyone
// casts. Until a view change excludes it no chunk is stable (a stability
// round needs every member's vote), so send windows fill, the sequencer's
// delivery stalls behind its unannounced batches, and its assignments reach
// assignWindow: the rest wait in deferred, frozen there through the view
// change. The install offers them again, with everything that arrived while
// it was frozen, through the same gate as an arrival. From the install on,
// the sequencer's assigned-but-undelivered span never exceeds assignWindow;
// every survivor delivers every message in one order, and nothing is left
// deferred.
//
// In "rejoin" the crashed member restarts before the failure detector
// excludes it, so the one install both excludes the dead incarnation and
// admits the new one over the backlog. The joiner's stream cursors start at
// the flush targets, so it can never receive an old-view message numbered
// above its catch-up sequence: it must deliver exactly the survivors' suffix
// above that sequence.
func TestInstallHonoursAssignWindow(t *testing.T) {
	for _, rejoin := range []bool{false, true} {
		name := map[bool]string{false: "exclude", true: "rejoin"}[rejoin]
		t.Run(name, func(t *testing.T) {
			const n, casts = 9, 300
			c := newCluster(t, n, 13, nil)
			c.crashNode(50*sim.Millisecond, n)
			for _, id := range nodes(n - 1) {
				for i := 0; i < casts; i++ {
					c.castAt(100*sim.Millisecond+sim.Time(i)*sim.Millisecond, id, []byte(fmt.Sprintf("%d-%d", id, i)))
				}
			}
			var joinSeq uint64
			members := n - 1 // the install's view
			if rejoin {
				c.rejoinNode(600*sim.Millisecond, n, n, &joinSeq)
				members = n
			}
			const end = 20 * sim.Second
			seq := c.stacks[1].to
			var span uint64
			backlog := false // deferred held messages after the install
			var sample func()
			sample = func() {
				if len(c.views[1]) > 0 {
					span = max(span, seq.nextGlobal-seq.nextDeliver)
					backlog = backlog || len(seq.deferred) > 0
				}
				if c.k.Now() < end {
					c.k.Schedule(100*sim.Microsecond, sample)
				}
			}
			c.k.Schedule(0, sample)
			c.run(end)
			if len(c.views[1]) != 1 || len(c.views[1][0].Members) != members {
				t.Fatalf("sequencer views %v, want one of %d members", c.views[1], members)
			}
			if span > assignWindow {
				t.Fatalf("after the install the sequencer assigned %d globals past delivery, want at most %d", span, assignWindow)
			}
			if !backlog {
				t.Fatal("nothing was deferred after the install: the run does not cover the backlog")
			}
			c.checkAgreement(nodes(n-1), (n-1)*casts)
			if d := seq.deferred; len(d) != 0 {
				t.Fatalf("%d assignments still deferred at the end", len(d))
			}
			if rejoin {
				if joinSeq == 0 {
					t.Fatal("the joiner never learned its catch-up sequence")
				}
				checkSuffixAgreement(t, c.delivered[1], c.delivered[n], joinSeq)
			}
		})
	}
}

func TestCrashNonSequencerInstallsNewView(t *testing.T) {
	c := newCluster(t, 3, 10, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
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
		cfg.failTimeout = 500 * sim.Millisecond
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

// TestNewSequencerNumbersQueuedOwnMessagesAfterAnchor crashes the sequencer
// while the survivor that takes over, never a sequencer before, has chunks of
// its own queued behind the flush. The install's unfreeze self-delivers
// them; each must be numbered only after onInstall anchors the new
// sequencer's counter past the old numbering, so it gets a global above
// what was delivered and delivers at every survivor. Numbered from the
// takeover's fresh counter instead, one lands on a global both survivors
// passed long ago and never delivers.
func TestNewSequencerNumbersQueuedOwnMessagesAfterAnchor(t *testing.T) {
	c := newCluster(t, 3, 11, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	casts := 0
	for i := 0; i < 30; i++ {
		c.castAt(sim.Time(i+1)*5*sim.Millisecond, NodeID(2+i%2), []byte(fmt.Sprintf("pre%d", i)))
		casts++
	}
	c.k.ScheduleAt(200*sim.Millisecond, func() {
		c.rts[1].Crash()
		c.net.Host(1).SetDown(true)
	})
	// Node 2 casts the moment it freezes for the flush: its chunks queue
	// until the install unfreezes it.
	cast, queuedInFlush := false, 0
	for at := 500 * sim.Millisecond; at < 2*sim.Second; at += 10 * sim.Microsecond {
		c.k.ScheduleAt(at, func() {
			if cast || !c.stacks[2].rm.frozen {
				return
			}
			cast = true
			for i := 0; i < 3; i++ {
				payload := []byte(fmt.Sprintf("flush%d", i))
				c.rts[2].CPUs().SubmitReal(func() {
					if c.stacks[2].rm.frozen {
						queuedInFlush++
					}
					c.stacks[2].Multicast(payload)
				}, nil)
				casts++
			}
		})
	}
	c.run(10 * sim.Second)
	if queuedInFlush == 0 {
		t.Fatal("no cast of node 2 queued behind the flush: the test no longer reaches the takeover path")
	}
	if v := c.stacks[2].View(); v.Sequencer() != 2 {
		t.Fatalf("sequencer = %d, want 2", v.Sequencer())
	}
	c.checkAgreement([]NodeID{2, 3}, casts)
	for i, d := range c.delivered[2] {
		if d.Global != uint64(i+1) {
			t.Fatalf("global sequence has gaps: position %d = %d", i, d.Global)
		}
	}
}

// TestFlushRollsBackUnagreedAnnouncement makes the dying sequencer's last
// announcement reach one survivor only, and only after that survivor's
// flush ack: node 1 orders node 3's message m3 in a chunk that node 3 never
// receives and node 2 receives mid-flush, past the agreed target of node 1's
// stream. Node 2 cast m2 after node 1 died, so both survivors hold m2 and m3
// unordered except for node 2's beyond-target global for m3. The install
// must take that global back (rollbackUnagreed) so both renumber m2, m3 from
// the same base; kept, node 2 delivers m3 before m2 and node 3 the reverse.
func TestFlushRollsBackUnagreedAnnouncement(t *testing.T) {
	c := newCluster(t, 3, 12, func(cfg *Config) {
		cfg.failTimeout = 500 * sim.Millisecond
	})
	for i := 0; i < 3; i++ {
		c.castAt(sim.Time(i+1)*10*sim.Millisecond, NodeID(2+i%2), []byte(fmt.Sprintf("warm%d", i)))
	}
	// From 100 ms on, nodes 2 and 3 drop every chunk of node 1's stream past
	// the last one sent before; node 2 keeps the first for later.
	var tail uint64
	c.k.ScheduleAt(100*sim.Millisecond, func() { tail = c.stacks[1].rm.sendSeq })
	var held []byte
	beyondTail := func(data []byte) bool {
		var m dataMsg
		return c.k.Now() >= 100*sim.Millisecond && len(data) >= dataHeader && data[0] == kindData &&
			parseDataInto(&m, data) == nil && m.Sender == 1 && m.Seq > tail
	}
	deliver2, deliver3 := c.rts[2].Deliver, c.rts[3].Deliver
	injected := false
	c.net.Host(2).DeliverTo(func(src NodeID, data []byte) {
		if beyondTail(data) {
			if held == nil {
				held = bytes.Clone(data)
			}
			return
		}
		// Node 2 coordinates the flush; node 3's first packet after node
		// 2's own ack is delivered behind the held chunk, so the chunk is
		// processed frozen and before the decision fixes the targets.
		if src == 3 && held != nil && !injected && c.stacks[2].memb.state == membFlushing {
			injected = true
			deliver2(1, held)
		}
		deliver2(src, data)
	})
	c.net.Host(3).DeliverTo(func(src NodeID, data []byte) {
		if !beyondTail(data) {
			deliver3(src, data)
		}
	})
	c.castAt(100*sim.Millisecond, 3, []byte("m3"))
	c.crashNode(120*sim.Millisecond, 1)
	c.castAt(150*sim.Millisecond, 2, []byte("m2"))
	c.run(5 * sim.Second)

	if held == nil || !injected {
		t.Fatalf("test premise broken: node 1's announcement held %v, injected mid-flush %v", held != nil, injected)
	}
	if v := c.stacks[2].View(); v.Sequencer() != 2 || len(v.Members) != 2 {
		t.Fatalf("node 2 ends in view %+v, want {2, 3}", v)
	}
	c.checkAgreement([]NodeID{2, 3}, 5)
}

func TestCrashDuringHeavyTrafficAgreement(t *testing.T) {
	c := newCluster(t, 5, 12, func(cfg *Config) {
		cfg.failTimeout = 400 * sim.Millisecond
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
