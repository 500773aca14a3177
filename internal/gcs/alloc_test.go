package gcs

import (
	"testing"

	"repro/internal/sim"
)

// TestDataMarshalAllocFree pins the wire encoder's budget: marshaling a data
// chunk into a warm buffer (dataMsg.marshal) allocates nothing.
func TestDataMarshalAllocFree(t *testing.T) {
	payload := make([]byte, 512)
	m := &dataMsg{Sender: 3, Seq: 99, Frag: fragFull, Payload: payloadApp, Data: payload}
	buf := make([]byte, 0, dataHeader+len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		buf = m.marshal(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("dataMsg.marshal into warm buffer: %v allocs/op, want 0", allocs)
	}
	var got dataMsg
	if err := parseDataInto(&got, buf); err != nil || got.Seq != 99 || len(got.Data) != len(payload) {
		t.Fatalf("round trip: %+v err=%v", got, err)
	}
}

// TestParseDataPooledAllocFree pins the receive-side decode: parsing into a
// pooled struct (parseDataInto) allocates nothing.
func TestParseDataPooledAllocFree(t *testing.T) {
	m := &dataMsg{Sender: 3, Seq: 99, Frag: fragFull, Payload: payloadApp, Data: make([]byte, 256)}
	wire := m.marshal(nil)
	var into dataMsg
	allocs := testing.AllocsPerRun(100, func() {
		if err := parseDataInto(&into, wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parseDataInto: %v allocs/op, want 0", allocs)
	}
}

// TestAssignsMarshalAllocFree pins the sequencer's batch path: marshaling
// and parsing assignment batches through warm scratch buffers
// (marshalAssigns, parseAssignsInto) allocates nothing — this runs once per
// ordering batch on the sequencer hot path.
func TestAssignsMarshalAllocFree(t *testing.T) {
	batch := []seqAssign{{Sender: 1, Seq: 5, Global: 10}, {Sender: 2, Seq: 6, Global: 11}}
	wire := marshalAssigns(nil, batch)
	var scratch []seqAssign
	scratch, _ = parseAssignsInto(scratch, wire)
	allocs := testing.AllocsPerRun(100, func() {
		wire = marshalAssigns(wire, batch)
		var err error
		scratch, err = parseAssignsInto(scratch, wire)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("assigns marshal+parse with warm scratch: %v allocs/op, want 0", allocs)
	}
}

// TestIdleClusterAllocFree pins the timers of an idle group: once a
// 3-member cluster has run a second, each further heartbeat period (the
// heartbeat, the failure detector's tick every failTimeout/4, stability
// gossip, and the messages they send and receive) allocates nothing. Every
// periodic job is bound once on its owner, and every measured period is
// counted on its own, so a single allocation anywhere fails the pin.
func TestIdleClusterAllocFree(t *testing.T) {
	c := newCluster(t, 3, 1, nil)
	c.run(sim.Second)
	until := sim.Second
	period := func() {
		until += heartbeatPeriod
		if err := c.k.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}
	before := c.stacks[1].Stats()
	for i := 0; i < 20; i++ {
		if allocs := testing.AllocsPerRun(1, period); allocs != 0 {
			t.Fatalf("idle period ending at %v: %v allocs, want 0", until, allocs)
		}
	}
	if after := c.stacks[1].Stats(); after.Gossips < before.Gossips+20 || after.ViewChanges != before.ViewChanges {
		t.Fatalf("test premise broken: %d gossips and %d view changes in 20 periods, want at least 20 and none",
			after.Gossips-before.Gossips, after.ViewChanges-before.ViewChanges)
	}
}
