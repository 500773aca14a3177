package simnet

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
)

func newLANPair(t *testing.T, cfg LANConfig) (*sim.Kernel, *Network, *Host, *Host) {
	t.Helper()
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	lan := n.NewLAN(cfg)
	h1, err := n.NewHost(1, lan)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := n.NewHost(2, lan)
	if err != nil {
		t.Fatal(err)
	}
	return k, n, h1, h2
}

func TestUnicastLatencyMatchesBandwidthAndPropagation(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{
		BandwidthBps:  100e6,
		Propagation:   30 * sim.Microsecond,
		FrameOverhead: 46,
	})
	var arrived sim.Time
	h2.SetDeliver(func(pkt *Packet) { arrived = k.Now() })
	if err := n.Send(1, 2, make([]byte, 954), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// wire = 954+46 = 1000B = 8000 bits at 100Mbps = 80us, + 30us prop.
	want := 80*sim.Microsecond + 30*sim.Microsecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestSharedMediumSerializesTransmissions(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{BandwidthBps: 100e6, Propagation: 0, FrameOverhead: 0})
	var arrivals []sim.Time
	h2.SetDeliver(func(pkt *Packet) { arrivals = append(arrivals, k.Now()) })
	// Two back-to-back 1250-byte packets: each takes 100us on the wire.
	if err := n.Send(1, 2, make([]byte, 1250), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 2, make([]byte, 1250), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	if arrivals[0] != 100*sim.Microsecond || arrivals[1] != 200*sim.Microsecond {
		t.Fatalf("arrivals = %v, want [100us 200us]", arrivals)
	}
}

func TestMulticastReachesAllLANMembersExceptSender(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	lan := n.NewLAN(DefaultLANConfig("lan"))
	got := map[NodeID]int{}
	for id := NodeID(1); id <= 3; id++ {
		h, err := n.NewHost(id, lan)
		if err != nil {
			t.Fatal(err)
		}
		hid := id
		h.SetDeliver(func(pkt *Packet) { got[hid]++ })
	}
	n.SetGroup(1, []NodeID{1, 2, 3})
	if err := n.Multicast(1, 1, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("deliveries = %v, want host1:0 host2:1 host3:1", got)
	}
	// One wire transmission regardless of group size.
	wantWire := int64(5 + 46)
	if lan.Bytes().Bytes() != wantWire {
		t.Fatalf("wire bytes = %d, want %d", lan.Bytes().Bytes(), wantWire)
	}
}

func TestFragmentationAddsPerFrameOverhead(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	frag := n.NewLAN(LANConfig{MTU: 1500, FrameOverhead: 46, FragmentOversize: true})
	if got := frag.wireSize(4000); got != 4000+3*46 {
		t.Fatalf("fragmented wire size = %d, want %d", got, 4000+3*46)
	}
	ssfnet := n.NewLAN(LANConfig{MTU: 1500, FrameOverhead: 46, FragmentOversize: false})
	if got := ssfnet.wireSize(4000); got != 4000+46 {
		t.Fatalf("unfragmented wire size = %d, want %d", got, 4000+46)
	}
	_ = k
}

func TestCrashedHostsSendAndReceiveNothing(t *testing.T) {
	k, n, h1, h2 := newLANPair(t, LANConfig{})
	delivered := 0
	h2.SetDeliver(func(pkt *Packet) { delivered++ })
	h2.SetDown(true)
	if err := n.Send(1, 2, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("down host received a packet")
	}
	h2.SetDown(false)
	h1.SetDown(true)
	if err := n.Send(1, 2, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Fatal("down host transmitted a packet")
	}
}

func TestRandomLossRate(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{})
	h2.SetLoss(&RandomLoss{P: 0.05})
	delivered := 0
	h2.SetDeliver(func(pkt *Packet) { delivered++ })
	const total = 20000
	for i := 0; i < total; i++ {
		if err := n.Send(1, 2, []byte{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rate := 1 - float64(delivered)/total
	if math.Abs(rate-0.05) > 0.01 {
		t.Fatalf("loss rate = %v, want ~0.05", rate)
	}
	if h2.Dropped() != int64(total-delivered) {
		t.Fatal("Dropped() inconsistent with deliveries")
	}
}

func TestBurstyLossRateAndBurstiness(t *testing.T) {
	g := sim.NewRNG(7)
	// Bursts average 50ms; with one arrival every 10ms that is ~5
	// consecutive messages per burst.
	l := &BurstyLoss{Rate: 0.05, MeanBurst: 50 * sim.Millisecond}
	const total = 200000
	lost := 0
	bursts := 0
	prev := false
	for i := 0; i < total; i++ {
		d := l.Drop(g, sim.Time(i)*10*sim.Millisecond)
		if d {
			lost++
			if !prev {
				bursts++
			}
		}
		prev = d
	}
	rate := float64(lost) / total
	if math.Abs(rate-0.05) > 0.01 {
		t.Fatalf("bursty loss rate = %v, want ~0.05", rate)
	}
	meanBurst := float64(lost) / float64(bursts)
	if meanBurst < 3.0 || meanBurst > 7.0 {
		t.Fatalf("mean burst length = %v messages, want ~5", meanBurst)
	}
}

func TestMulticastDoesNotCrossLANs(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	a := n.NewLAN(LANConfig{})
	b := n.NewLAN(LANConfig{})
	if _, err := n.NewHost(1, a); err != nil {
		t.Fatal(err)
	}
	h2, err := n.NewHost(2, a)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := n.NewHost(3, b)
	if err != nil {
		t.Fatal(err)
	}
	n.SetGroup(1, []NodeID{1, 2, 3})
	got := map[NodeID]int{}
	h2.SetDeliver(func(pkt *Packet) { got[2]++ })
	h3.SetDeliver(func(pkt *Packet) { got[3]++ })
	if err := n.Multicast(1, 1, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// Nor does a unicast: no route joins two segments.
	if err := n.Send(1, 3, []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 || got[3] != 0 {
		t.Fatalf("deliveries = %v; traffic must stay on the LAN", got)
	}
}

func TestTraceRecords(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{})
	var recs []TraceRecord
	n.SetTracer(func(r TraceRecord) { recs = append(recs, r) })
	h2.SetDeliver(func(pkt *Packet) {})
	if err := n.Send(1, 2, []byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("trace records = %d, want send+recv", len(recs))
	}
	if recs[0].Event != TraceSend || recs[1].Event != TraceRecv {
		t.Fatalf("events = %v %v", recs[0].Event, recs[1].Event)
	}
	if recs[1].Size != 3 || recs[1].Dst != 2 {
		t.Fatalf("recv record = %+v", recs[1])
	}
	if recs[0].String() == "" || TraceDrop.String() != "drop" {
		t.Fatal("formatting broken")
	}
}

// TestDeliveredDataIsHandedOff pins the copy: Send takes the bytes before it
// returns, so the sender's write right after it is invisible to the
// receiver, which reads the packet's buffer, not the sender's.
func TestDeliveredDataIsHandedOff(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{})
	payload := []byte{1, 2, 3}
	var got []byte
	h2.SetDeliver(func(pkt *Packet) {
		if &pkt.Data[0] == &payload[0] {
			t.Error("the receiver was handed the sender's buffer")
		}
		got = append(got, pkt.Data...)
	})
	if err := n.Send(1, 2, payload, 0); err != nil {
		t.Fatal(err)
	}
	payload[0] = 9
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("receiver got %v, want the bytes as they were at Send", got)
	}
}

func TestPacketStructsArePooled(t *testing.T) {
	k, n, _, h2 := newLANPair(t, LANConfig{})
	delivered := 0
	h2.SetDeliver(func(pkt *Packet) { delivered++ })
	for i := 0; i < 4; i++ {
		if err := n.Send(1, 2, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if delivered != 4 {
		t.Fatalf("delivered = %d", delivered)
	}
	if n.free.Len() == 0 {
		t.Fatal("expected released packets in the pool")
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, sim.NewRNG(1))
	lan := n.NewLAN(LANConfig{})
	if _, err := n.NewHost(1, lan); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewHost(1, lan); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestUnknownEndpointsError(t *testing.T) {
	k, n, _, _ := newLANPair(t, LANConfig{})
	if err := n.Send(9, 2, []byte{1}, 0); err == nil {
		t.Fatal("unknown source accepted")
	}
	if err := n.Send(1, 9, []byte{1}, 0); err == nil {
		t.Fatal("unknown destination accepted")
	}
	if err := n.Multicast(1, 99, []byte{1}, 0); err == nil {
		t.Fatal("unknown group accepted")
	}
	_ = k
}
