package simnet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// newPayloadLAN is one LAN of three hosts in group 1, all sending from
// host 1.
func newPayloadLAN(t *testing.T) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	lan := n.NewLAN(DefaultLANConfig("lan"))
	for id := NodeID(1); id <= 3; id++ {
		if _, err := n.NewHost(id, lan); err != nil {
			t.Fatal(err)
		}
	}
	n.SetGroup(1, []NodeID{1, 2, 3})
	return k, n
}

// sink keeps a test's appends observable.
var sink []byte

// runPanic runs the kernel dry and reports the panic value, or nil.
func runPanic(t *testing.T, k *sim.Kernel) (got any) {
	t.Helper()
	defer func() { got = recover() }()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return nil
}

// from sends from host 1 of a newPayloadLAN and fails the test on an error:
// a datagram that never left would pass a case vacuously.
type from struct {
	t *testing.T
	n *Network
}

func (f from) send(dst NodeID, buf []byte) {
	f.t.Helper()
	if err := f.n.Send(1, dst, buf, 0); err != nil {
		f.t.Fatal(err)
	}
}

func (f from) multicast(buf []byte) {
	f.t.Helper()
	if err := f.n.Multicast(1, 1, buf, 0); err != nil {
		f.t.Fatal(err)
	}
}

// TestPayloadChangedInFlight: Send and Multicast copy the payload before
// they return, so nothing the sender does with its buffer afterwards —
// writing it, appending over it, sending it again — changes a byte a
// receiver reads. A receiver may not write the packet's copy, though: the
// receivers of a multicast share it, and it is read-only to the last one
// too. Race builds (checkPayload) panic at the arrival, or the last release,
// that sees a receiver's write; ordinary builds compile the check out.
func TestPayloadChangedInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		changes bool
		run     func(h1 from)
	}{
		{"write after send", false, func(h1 from) {
			buf := make([]byte, 8)
			h1.send(2, buf)
			buf[0] = 1
		}},
		{"copy after send", false, func(h1 from) {
			buf := make([]byte, 16)
			h1.send(2, buf)
			copy(buf, "overwritten")
		}},
		{"reslice then append over the sent bytes", false, func(h1 from) {
			buf := make([]byte, 16)
			h1.multicast(buf)
			buf = buf[:0]
			sink = append(buf, 9)
		}},
		{"receiver writes while another arrival is pending", true, func(h1 from) {
			h1.n.Host(2).SetDeliver(func(pkt *Packet) { pkt.Data[0]++ })
			h1.multicast([]byte{1, 2, 3})
		}},
		{"the last receiver writes in its upcall", true, func(h1 from) {
			h1.n.Host(2).SetDeliver(func(pkt *Packet) { pkt.Data[0]++ })
			h1.send(2, []byte{1, 2, 3})
		}},
		{"append into spare capacity", false, func(h1 from) {
			buf := make([]byte, 0, 8)
			buf = append(buf, 1, 2, 3)
			h1.send(2, buf)
			sink = append(buf, 9)
		}},
		{"reslice without a write", false, func(h1 from) {
			buf := make([]byte, 16)
			h1.multicast(buf)
			sink = buf[:0]
		}},
		{"re-send the same buffer", false, func(h1 from) {
			buf := []byte{1}
			h1.send(2, buf)
			h1.send(3, buf)
			h1.multicast(buf)
		}},
		{"fresh buffer after send", false, func(h1 from) {
			buf := make([]byte, 8)
			h1.send(2, buf)
			buf = make([]byte, 8)
			buf[0] = 1
			h1.send(2, buf)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, n := newPayloadLAN(t)
			tc.run(from{t, n})
			got := runPanic(t, k)
			if want := tc.changes && checkPayload; (got != nil) != want {
				t.Fatalf("panic = %v, want a panic: %v", got, want)
			}
		})
	}
}

// TestPayloadPanicNamesThePacket: the check fails at the arrival, before the
// next receiver is handed the changed bytes, and the panic names the sender,
// the packet's trace sequence number, and that receiver.
func TestPayloadPanicNamesThePacket(t *testing.T) {
	if !checkPayload {
		t.Skip("the payload digest is armed in race builds only")
	}
	k, n := newPayloadLAN(t)
	h1 := from{t, n}
	n.Host(2).SetDeliver(func(pkt *Packet) {
		if pkt.Seq == 2 {
			pkt.Data[1] = 0
		}
	})
	n.Host(3).SetDeliver(func(pkt *Packet) {
		if pkt.Seq == 2 {
			t.Error("node 3 was handed changed bytes")
		}
	})
	h1.multicast([]byte{1})    // #1, unchanged
	h1.multicast([]byte{1, 2}) // #2, written by node 2
	msg, _ := runPanic(t, k).(string)
	if want := "packet #2 from node 1 changed in flight (seen at node 3)"; !strings.Contains(msg, want) {
		t.Fatalf("panic %q does not contain %q", msg, want)
	}
}

// TestKeptPayloadReadsPoison: a DeliverFunc that keeps pkt.Data past its
// upcall — a unicast's, or a multicast's that both receivers share — reads
// 0xFF in race builds once the packet's last reference is gone.
func TestKeptPayloadReadsPoison(t *testing.T) {
	k, n := newPayloadLAN(t)
	var kept [][]byte
	for id := NodeID(2); id <= 3; id++ {
		n.Host(id).SetDeliver(func(pkt *Packet) { kept = append(kept, pkt.Data) })
	}
	h1 := from{t, n}
	h1.send(2, []byte{1, 2, 3})
	h1.multicast([]byte{4, 5, 6})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("kept %d payloads, want 3", len(kept))
	}
	for _, data := range kept {
		if poisoned := bytes.Count(data, []byte{0xFF}) == len(data); poisoned != checkPayload {
			t.Fatalf("kept payload %v: poisoned = %v, want %v", data, poisoned, checkPayload)
		}
	}
}

// TestWirePathAllocFree pins the wire path: once the packet, thunk and
// kernel pools are warm, a unicast and a multicast — the copy into the
// packet, injection, transmission, arrivals (every one at node 3
// duplicated), delivery and the last release — allocate nothing. It holds
// Network.Send, Multicast, newPacket, release, scheduleTransmission,
// transmitMulticast, lanTransmit, scheduleArrival, enqueueArrival and arrive.
func TestWirePathAllocFree(t *testing.T) {
	k, n := newPayloadLAN(t)
	n.Host(3).SetDuplicate(&Injector{Rate: 1})
	delivered := 0
	for id := NodeID(2); id <= 3; id++ {
		n.Host(id).SetDeliver(func(*Packet) { delivered++ })
	}
	h1 := from{t, n}
	buf := make([]byte, 1024)
	step := func() {
		h1.send(3, buf)
		h1.multicast(buf)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for range 16 {
		step()
	}
	delivered = 0
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("warm Send+Multicast through arrival and release: %v allocs/op, want 0", allocs)
	}
	if want := 101 * 5; delivered != want { // node 3 twice per datagram, node 2 once
		t.Fatalf("delivered %d, want %d", delivered, want)
	}
}

// TestDigestTableDrains: every packet's entry leaves the table with its last
// reference, whatever its fate — delivered, duplicated, dropped by loss, cut
// at a partition, or sent from a crashed host — so an empty table after a
// drained run proves that no packet reference leaked. The three pools
// (packets, arrival and transmission thunks) have nothing lent by then, in
// every build.
func TestDigestTableDrains(t *testing.T) {
	k, n := newPayloadLAN(t)
	h1 := from{t, n}
	n.Host(2).SetDuplicate(&Injector{Rate: 0.5})
	n.Host(3).SetLoss(&RandomLoss{P: 0.3})
	delivered := map[NodeID]int{}
	for id := NodeID(2); id <= 3; id++ {
		n.Host(id).SetDeliver(func(*Packet) { delivered[id]++ })
	}
	const rounds = 50
	for i := range rounds {
		buf := []byte{byte(i), 1, 2, 3}
		h1.send(2, buf)
		h1.send(3, buf)
		h1.multicast(buf)
	}
	if got, want := len(n.digests) > 0, checkPayload; got != want {
		t.Fatalf("digests held in flight = %v, want %v", got, want)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Partition([]NodeID{3})
	h1.send(3, []byte{1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.Host(1).SetDown(true)
	h1.multicast([]byte{1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered[2] <= 2*rounds || n.Host(3).Dropped() == 0 || n.PartitionDrops() != 1 || delivered[3] == 0 {
		t.Fatalf("test premise broken: some fate was never taken (delivered %v, dropped %d, cut %d)",
			delivered, n.Host(3).Dropped(), n.PartitionDrops())
	}
	if len(n.digests) != 0 {
		t.Fatalf("%d digests left after the network drained: a packet reference leaked", len(n.digests))
	}
	if p, a, tx := n.free.Out(), n.freeArr.Out(), n.freeTx.Out(); p != 0 || a != 0 || tx != 0 {
		t.Fatalf("after the network drained: %d packets, %d arrivals, %d transmissions lent", p, a, tx)
	}
}

// TestDoubleReleasePanics: a packet released once more than it was
// referenced is a free-list double put, which race builds refuse.
func TestDoubleReleasePanics(t *testing.T) {
	_, n := newPayloadLAN(t)
	pkt := n.newPacket(nil)
	n.release(pkt, 2)
	got := func() (did bool) {
		defer func() { did = recover() != nil }()
		n.release(pkt, 2)
		return
	}()
	if got != checkPayload {
		t.Fatalf("second release panicked = %v, want %v", got, checkPayload)
	}
}
