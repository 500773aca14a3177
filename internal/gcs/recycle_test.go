package gcs

import (
	"bytes"
	"testing"

	"repro/internal/csrt"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// pattern fills n bytes with a sequence that depends on salt, so two
// messages of equal length never compare equal.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// feed hands one message of sender's stream to st the way receive does once
// the datagrams are parsed: chunk by chunk through onData, each copied into
// the buffer of a pooled dataMsg. It returns the sequence number of the last
// chunk.
func feed(st *Stack, sender NodeID, firstSeq uint64, kind byte, payload []byte) uint64 {
	maxChunk := st.maxPacket - dataHeader
	n := (len(payload) + maxChunk - 1) / maxChunk
	for i := 0; i < n; i++ {
		m := st.rm.newMsg()
		m.Sender, m.Seq, m.Payload = sender, firstSeq+uint64(i), kind
		switch {
		case n == 1:
			m.Frag = fragFull
		case i == 0:
			m.Frag = fragFirst
		case i == n-1:
			m.Frag = fragLast
		default:
			m.Frag = fragMid
		}
		m.Data = append(m.Data[:0], payload[i*maxChunk:min((i+1)*maxChunk, len(payload))]...)
		st.rm.onData(m)
	}
	return firstSeq + uint64(n) - 1
}

// Two fragmented messages delivered back to back: each payload is intact
// inside its own upcall, and the second is reassembled in the buffer the
// first one gave back — the reassembly copy is the only one, and it lands in
// recycled memory.
func TestReassemblyBufferRecycled(t *testing.T) {
	c := newCluster(t, 3, 71, nil)
	want := [][]byte{pattern(5000, 1), pattern(4500, 2)}
	var backing []*byte
	c.stacks[3].OnDeliver(func(d Delivery) {
		i := len(backing)
		if i >= len(want) || !bytes.Equal(d.Payload, want[i]) {
			t.Fatalf("delivery %d: payload corrupted inside its upcall", i)
		}
		backing = append(backing, &d.Payload[0])
	})
	c.castAt(10*sim.Millisecond, 1, want[0])
	c.castAt(50*sim.Millisecond, 1, want[1])
	c.run(1 * sim.Second)
	if len(backing) != 2 {
		t.Fatalf("node 3 delivered %d messages, want 2", len(backing))
	}
	if backing[0] != backing[1] {
		t.Fatal("second fragmented message was not reassembled in the first one's buffer")
	}
	if n := c.stacks[3].rm.freeBodies.Len(); n != 2 {
		t.Fatalf("free list holds %d buffers after both deliveries, want the one they shared and the one their assignments were decoded from", n)
	}
}

// A warm receive of a fragmented message — three chunks through onData,
// reassembly, ordering, the delivery upcall, the buffer's return — allocates
// nothing. It holds relMcast.newMsg, recycleMsg, newBody, recycleBody,
// fifoDeliver and complete, and totalOrder.onAppData, tryDeliver and forget.
func TestFragmentedReceiveAllocFree(t *testing.T) {
	c := newCluster(t, 3, 72, nil)
	st := c.stacks[2] // not the sequencer: ordering arrives as an announcement
	body := pattern(4096, 3)
	delivered := 0
	st.OnDeliver(func(d Delivery) {
		if len(d.Payload) == len(body) && d.Payload[4095] == body[4095] {
			delivered++
		}
	})
	const sender, sequencer = NodeID(3), NodeID(1)
	assign := make([]seqAssign, 1)
	var seq, global uint64
	receive := func() {
		global++
		assign[0] = seqAssign{Sender: sender, Seq: seq + 1, Global: global}
		st.to.onAssigns(sequencer, global, assign)
		seq = feed(st, sender, seq+1, payloadApp, body)
		st.rm.gcStable(sender, seq) // what stability gossip does: vacate the receive buffer
	}
	allocs := testing.AllocsPerRun(100, receive)
	if delivered != 101 {
		t.Fatalf("delivered %d of 101 messages", delivered)
	}
	if allocs != 0 {
		t.Fatalf("warm fragmented receive: %v allocs/op, want 0", allocs)
	}
}

// A warm cast of a two-chunk message allocates nothing from end to end: the
// marshal into pooled chunks, drain, the network's copy, self-delivery into
// pooled dataMsgs, reassembly, the sequencer's assignment batch (a third
// chunk), the delivery upcall, and the stability GC that hands the chunks
// back. The lone member sequences for itself; its stack is not started, so
// no gossip or failure-detector timer (which allocates by design) runs, and
// gcStable stands in for the gossip round that would call it. It holds
// relMcast.newChunk and recycleChunk on top of the receive path.
func TestCastAllocFree(t *testing.T) {
	k := sim.NewKernel()
	rng := sim.NewRNG(75)
	net := simnet.NewNetwork(k, rng.Fork("net"))
	net.SetGroup(1, []NodeID{1})
	host, err := net.NewHost(1, net.NewLAN(simnet.DefaultLANConfig("lan0")))
	if err != nil {
		t.Fatal(err)
	}
	rt := csrt.NewRuntime(k, 1, &csrt.ModelProfiler{}, net.Port(1, 1400), csrt.DefaultCostParams(), rng.Fork("rt"))
	rt.Bind(csrt.NewCPUSet(1, k, nil))
	host.DeliverTo(rt.Deliver)
	st, err := New(rt, Config{Self: 1, Members: []NodeID{1}, Group: 1, UseMulticast: true})
	if err != nil {
		t.Fatal(err)
	}
	body := pattern(2000, 6)
	delivered := 0
	st.OnDeliver(func(d Delivery) {
		if bytes.Equal(d.Payload, body) {
			delivered++
		}
	})
	cast := func() { st.Multicast(body) }
	submit := func() { rt.CPUs().SubmitReal(cast, nil) }
	step := func() {
		k.Schedule(sim.Millisecond, submit) // a millisecond refills the rate tokens
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st.rm.gcStable(1, st.rm.sendSeq)
	}
	for range 16 {
		step()
	}
	allocs := testing.AllocsPerRun(100, step)
	if delivered != 16+101 || st.BufferedMessages() != 0 {
		t.Fatalf("delivered %d of %d messages, %d chunks still buffered", delivered, 16+101, st.BufferedMessages())
	}
	if n := st.rm.freeChunks.Len(); n != 3 {
		t.Fatalf("%d chunks on the free list, want the 3 every cast reuses", n)
	}
	if allocs != 0 {
		t.Fatalf("warm two-chunk cast through stability: %v allocs/op, want 0", allocs)
	}
}

// checkLent holds a stack's three free lists to the buffers it still holds:
// every dataMsg lent sits in a receive buffer, every own chunk is queued or
// awaits stability, and every body is a reassembly in progress or a message
// awaiting its order. A halted stack holds none and has dropped its lists.
func checkLent(t *testing.T, id NodeID, st *Stack) {
	t.Helper()
	msgs, bodies := 0, 0
	for _, ps := range st.rm.peers {
		msgs += len(ps.recvBuf)
		if ps.body != nil {
			bodies++
		}
	}
	for _, m := range st.to.msgs {
		if m.held {
			bodies++
		}
	}
	chunks := len(st.rm.sendBuf) + len(st.rm.outQ) - st.rm.outHead
	if got := st.rm.freeMsgs.Out(); got != msgs {
		t.Errorf("node %d: %d dataMsgs lent, %d buffered", id, got, msgs)
	}
	if got := st.rm.freeChunks.Out(); got != chunks {
		t.Errorf("node %d: %d chunks lent, %d queued or unstable", id, got, chunks)
	}
	if got := st.rm.freeBodies.Out(); got != bodies {
		t.Errorf("node %d: %d bodies lent, %d held", id, got, bodies)
	}
}

// Every buffer a stack lends comes back once the traffic is stable: after a
// burst of one-chunk and fragmented messages from every member, each
// received dataMsg (freeMsgs), own wire chunk (freeChunks) and message body
// (freeBodies) is on its free list again, at every stack.
func TestFreeListsDrain(t *testing.T) {
	c := newCluster(t, 3, 76, nil)
	const msgs = 30
	for i := range msgs {
		size := 300
		if i%3 == 0 {
			size = 5000 // four chunks
		}
		c.castAt(sim.Time(10+i)*sim.Millisecond, NodeID(i%3+1), pattern(size, byte(i)))
	}
	c.run(2 * sim.Second)
	c.checkAgreement(nodes(3), msgs)
	for _, id := range nodes(3) {
		st := c.stacks[id]
		if n := st.BufferedMessages(); n != 0 {
			t.Fatalf("node %d still buffers %d chunks: the run did not drain", id, n)
		}
		if m, ch, b := st.rm.freeMsgs.Out(), st.rm.freeChunks.Out(), st.rm.freeBodies.Out(); m != 0 || ch != 0 || b != 0 {
			t.Errorf("node %d: %d dataMsgs, %d chunks, %d bodies lent after the traffic drained", id, m, ch, b)
		}
	}
}

// TestRecycledBuffersReadPoison: every buffer the reliable layer takes back —
// a received chunk's dataMsg, a stable chunk of the own stream, a delivered
// body — is filled with 0xFF in race builds, so a reader that kept one sees
// garbage, and is left alone in other builds.
func TestRecycledBuffersReadPoison(t *testing.T) {
	c := newCluster(t, 3, 79, nil)
	rm := c.stacks[1].rm
	m := rm.newMsg()
	m.Data = append(m.Data[:0], pattern(100, 1)...)
	chunk := append(rm.newChunk(), pattern(100, 2)...)
	body := append(rm.newBody(), pattern(100, 3)...)
	kept := map[string][]byte{"dataMsg": m.Data, "chunk": chunk, "body": body}
	rm.recycleMsg(m)
	rm.recycleChunk(chunk)
	rm.recycleBody(body)
	for name, b := range kept {
		b = b[:cap(b)]
		if poisoned := bytes.Count(b, []byte{0xFF}) == len(b); poisoned != sim.RaceBuild {
			t.Errorf("recycled %s: poisoned = %v, want %v", name, poisoned, sim.RaceBuild)
		}
	}
}

// A restarted own stream hands its unstable and unsent chunks back: the
// readmitted joiner's resetSelf leaves no chunk lent that nothing holds.
func TestResetSelfReturnsChunks(t *testing.T) {
	c := newCluster(t, 3, 77, func(cfg *Config) { cfg.stabilityPeriod = 10 * sim.Second })
	for i := range 8 {
		c.castAt(sim.Time(10+i)*sim.Millisecond, 1, pattern(3000, byte(i)))
	}
	c.run(100 * sim.Millisecond)
	st := c.stacks[1]
	if st.rm.freeChunks.Out() == 0 {
		t.Fatal("test premise broken: no chunk awaits stability")
	}
	st.rm.resetSelf()
	if n := st.rm.freeChunks.Out(); n != 0 {
		t.Fatalf("%d chunks lent after the stream restarted", n)
	}
}

// An assignment batch too large for one chunk is reassembled in a pooled
// buffer like any other message, and gives it back as soon as it is decoded.
func TestFragmentedAssignBatchReturnsBuffer(t *testing.T) {
	c := newCluster(t, 3, 73, nil)
	st := c.stacks[2]
	batch := make([]seqAssign, 100) // 2+20*100 bytes: two chunks
	for i := range batch {
		batch[i] = seqAssign{Sender: 3, Seq: uint64(i + 1), Global: uint64(i + 1)}
	}
	c.k.ScheduleAt(10*sim.Millisecond, func() {
		c.rts[2].CPUs().SubmitReal(func() {
			feed(st, 1, 1, payloadSeq, marshalAssigns(nil, batch))
		}, nil)
	})
	c.run(20 * sim.Millisecond)
	if len(st.to.order) != len(batch) {
		t.Fatalf("recorded %d of %d assignments", len(st.to.order), len(batch))
	}
	if n := st.rm.freeBodies.Len(); n != 1 {
		t.Fatalf("free list holds %d buffers after the batch, want 1", n)
	}
	if st.rm.peers[1].body != nil {
		t.Fatal("reassembly buffer still attached to the sequencer's stream")
	}
}

// halt drops the free list with every other buffer, and a buffer that comes
// back afterwards — the delivery upcall itself stopped the stack — is not
// kept either.
func TestHaltDropsFreeList(t *testing.T) {
	c := newCluster(t, 3, 74, nil)
	st := c.stacks[3]
	deliveries := 0
	st.OnDeliver(func(Delivery) {
		if deliveries++; deliveries == 2 {
			st.Stop()
		}
	})
	c.castAt(10*sim.Millisecond, 1, pattern(5000, 4))
	c.castAt(50*sim.Millisecond, 1, pattern(5000, 5))
	c.run(40 * sim.Millisecond)
	if deliveries != 1 || st.rm.freeBodies.Len() != 2 { // the message's and its assignment's
		t.Fatalf("before halt: %d deliveries, %d free buffers, want 1 and 2", deliveries, st.rm.freeBodies.Len())
	}
	c.run(1 * sim.Second)
	if deliveries != 2 || !st.Stopped() {
		t.Fatalf("second delivery did not stop the stack (deliveries=%d)", deliveries)
	}
	if n := st.BufferedMessages(); n != 0 {
		t.Fatalf("halted stack still buffers %d messages", n)
	}
	if n := st.rm.freeBodies.Len(); n != 0 {
		t.Fatalf("halted stack keeps %d free reassembly buffers", n)
	}
}
