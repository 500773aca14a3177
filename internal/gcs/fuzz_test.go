package gcs

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/csrt"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Property: no wire input, however malformed, may panic a parser. Truncated
// or garbage traffic must be dropped, not crash a replica.
func TestParsersNeverPanicOnArbitraryBytes(t *testing.T) {
	parsers := []func([]byte){
		func(b []byte) { _, _ = parseData(b) },
		func(b []byte) { _, _ = parseNack(b) },
		func(b []byte) { _, _ = parseGossip(b) },
		func(b []byte) { _, _ = parseAssigns(b) },
		func(b []byte) { _, _ = parseHeartbeat(b) },
		func(b []byte) { _, _ = parsePropose(b) },
		func(b []byte) { _, _ = parseFlushAck(b) },
		func(b []byte) { _, _ = parseDecide(b) },
		func(b []byte) { _, _ = parseInstalled(b) },
	}
	f := func(data []byte) bool {
		for _, p := range parsers {
			p(data)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a stack receiving arbitrary garbage datagrams neither panics nor
// corrupts subsequent legitimate traffic.
func TestStackSurvivesGarbageTraffic(t *testing.T) {
	c := newCluster(t, 3, 21, nil)
	g := sim.NewRNG(99)
	// Interleave garbage with real casts.
	for i := 0; i < 50; i++ {
		garbage := make([]byte, g.IntRange(0, 64))
		for j := range garbage {
			garbage[j] = byte(g.Intn(256))
		}
		at := sim.Time(i+1) * 3 * sim.Millisecond
		c.k.ScheduleAt(at, func() { c.rts[2].Deliver(1, garbage) })
		c.castAt(at, NodeID(i%3+1), []byte{byte(i)})
	}
	c.run(5 * sim.Second)
	c.checkAgreement(nodes(3), 50)
	// The drops must be observable, not silent: the flooded member counted
	// its malformed datagrams.
	if c.stacks[2].Stats().ParseErrors == 0 {
		t.Fatal("garbage traffic dropped without incrementing Stats.ParseErrors")
	}
}

// Every malformed-message path of the receive switch must count the drop in
// Stats.ParseErrors — a wire-format regression has to be observable.
func TestParseErrorsCountedPerKind(t *testing.T) {
	c := newCluster(t, 3, 47, nil)
	malformed := [][]byte{
		{kindData, 1, 2},   // truncated data header
		{2, 9},             // the retired retransmission kind: its slot stays reserved, so unknown
		{kindNack},         // truncated NACK
		{kindGossip, 0},    // truncated gossip
		{kindPropose, 3},   // truncated view proposal
		{kindFlushAck},     // truncated flush snapshot
		{kindDecide, 1},    // truncated decision
		{kindInstalled},    // truncated install ack
		{0xee, 1, 2, 3, 4}, // unknown message kind
	}
	for i, wire := range malformed {
		w := wire
		c.k.ScheduleAt(sim.Time(i+1)*sim.Millisecond, func() { c.rts[1].Deliver(2, w) })
	}
	c.run(100 * sim.Millisecond)
	if got := c.stacks[1].Stats().ParseErrors; got != int64(len(malformed)) {
		t.Fatalf("ParseErrors = %d, want %d", got, len(malformed))
	}
	// A well-formed heartbeat is not a parse error.
	if c.stacks[2].Stats().ParseErrors != 0 {
		t.Fatalf("idle member counted %d parse errors", c.stacks[2].Stats().ParseErrors)
	}
}

// The dissemination mode must not change outcomes, only traffic shape:
// unicast fallback sends n-1 copies where multicast sends one.
func TestUnicastFallbackTrafficCost(t *testing.T) {
	run := func(useMulticast bool) int64 {
		k := sim.NewKernel()
		rng := sim.NewRNG(33)
		net := simnet.NewNetwork(k, rng.Fork("net"))
		lan := net.NewLAN(simnet.DefaultLANConfig("lan"))
		members := []NodeID{1, 2, 3}
		net.SetGroup(1, members)
		stacks := map[NodeID]*Stack{}
		rts := map[NodeID]*csrt.Runtime{}
		for _, id := range members {
			host, err := net.NewHost(id, lan)
			if err != nil {
				t.Fatal(err)
			}
			rt := csrt.NewRuntime(k, id, &csrt.ModelProfiler{}, net.Port(id, 1400), csrt.CostParams{}, rng.Fork(string(rune('a'+id))))
			rt.Bind(csrt.NewCPUSet(1, k, nil))
			host.DeliverTo(rt.Deliver)
			st, err := New(rt, Config{Self: id, Members: members, Group: 1, UseMulticast: useMulticast})
			if err != nil {
				t.Fatal(err)
			}
			stacks[id] = st
			rts[id] = rt
			st.Start()
		}
		for i := 0; i < 10; i++ {
			at := sim.Time(i+1) * 10 * sim.Millisecond
			k.ScheduleAt(at, func() {
				rts[1].CPUs().SubmitReal(func() { stacks[1].Multicast(make([]byte, 500)) }, nil)
			})
		}
		if err := k.RunUntil(2 * sim.Second); err != nil {
			t.Fatal(err)
		}
		for _, id := range members {
			if got := stacks[id].Stats().Delivered; got != 10 {
				t.Fatalf("mode multicast=%v: member %d delivered %d", useMulticast, id, got)
			}
		}
		return net.TotalBytes()
	}
	mcast := run(true)
	ucast := run(false)
	if ucast <= mcast {
		t.Fatalf("unicast fallback should cost more wire bytes: %d vs %d", ucast, mcast)
	}
}

// FuzzParse drives every wire parser of message.go with mutated datagrams,
// seeded from the package's own marshalers (one well-formed message per
// kind, plus truncations and hostile counts). Properties: no input panics a
// parser; an accepted input decodes to something that re-marshals within the
// input's length and decodes again to the same message (counts were bounded
// against the buffer, vectors lie inside it).
func FuzzParse(f *testing.F) {
	ids := []NodeID{1, 2, 3}
	seeds := [][]byte{
		(&dataMsg{Sender: 2, Seq: 7, Frag: fragFirst, Payload: payloadApp, Data: []byte("certification")}).marshal(nil),
		(&dataMsg{Sender: 1, Seq: 9, Frag: fragFull, Payload: payloadSeq,
			Data: marshalAssigns(nil, []seqAssign{{Sender: 2, Seq: 7, Global: 41}, {Sender: 3, Seq: 1, Global: 42}})}).marshal(nil),
		(&nackMsg{Target: 3, Ranges: []seqRange{{From: 4, To: 6}, {From: 9, To: 9}}}).marshal(nil),
		(&gossipMsg{ViewID: 2, Round: 11, W: 0b101, M: []uint64{1, 2, 3}, S: []uint64{1, 1, 2}, H: []uint64{4, 5, 6}}).marshal(nil),
		marshalAssigns(nil, []seqAssign{{Sender: 1, Seq: 2, Global: 3}}),
		(&heartbeatMsg{ViewID: 5}).marshal(nil),
		(&proposeMsg{NewViewID: 6, Proposer: 1, Members: ids[:2], Joiners: ids[2:]}).marshal(nil),
		(&flushAckMsg{NewViewID: 6, Contig: []memberSeq{{Member: 1, Seq: 10}, {Member: 2, Seq: 12}}}).marshal(nil),
		(&decideMsg{NewViewID: 6, Proposer: 1, Members: ids[:2], Joiners: ids[2:],
			Targets: []flushTarget{{Member: 1, Seq: 10, Holder: 2}, {Member: 2, Seq: 12, Holder: 2}}}).marshal(nil),
		(&joinReqMsg{Node: 3, Installed: 6}).marshal(nil),
		(&joinSyncMsg{ViewID: 7, JoinSeq: 99}).marshal(nil),
		(&assignAckMsg{ViewID: 7, Seq: 13}).marshal(nil),
		(&installedMsg{NewViewID: 7}).marshal(nil),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		// The same header announcing the largest count its field can hold.
		for _, at := range []int{5, 15, 17, 9} {
			if at+2 <= len(s) {
				hostile := append([]byte(nil), s...)
				hostile[at], hostile[at+1] = 0xff, 0xff
				f.Add(hostile)
			}
		}
	}
	f.Add([]byte{})

	// roundTrip re-marshals an accepted message and decodes it again.
	roundTrip := func(t *testing.T, name string, data []byte, msg any, wire []byte, reparse func([]byte) (any, error)) {
		t.Helper()
		if len(wire) > len(data) {
			t.Fatalf("%s: accepted %d bytes but re-marshals to %d", name, len(data), len(wire))
		}
		again, err := reparse(wire)
		if err != nil {
			t.Fatalf("%s: re-marshaled message rejected: %v", name, err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("%s: round trip changed the message:\n %+v\n %+v", name, msg, again)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := parseData(data); err == nil {
			roundTrip(t, "data", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseData(b) })
		}
		if m, err := parseNack(data); err == nil {
			roundTrip(t, "nack", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseNack(b) })
		}
		if m, err := parseGossip(data); err == nil {
			roundTrip(t, "gossip", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseGossip(b) })
		}
		if m, err := parseAssigns(data); err == nil {
			roundTrip(t, "assigns", data, m, marshalAssigns(nil, m), func(b []byte) (any, error) { return parseAssigns(b) })
		}
		if m, err := parseHeartbeat(data); err == nil {
			roundTrip(t, "heartbeat", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseHeartbeat(b) })
		}
		if m, err := parsePropose(data); err == nil {
			roundTrip(t, "propose", data, m, m.marshal(nil), func(b []byte) (any, error) { return parsePropose(b) })
		}
		if m, err := parseFlushAck(data); err == nil {
			roundTrip(t, "flushack", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseFlushAck(b) })
		}
		if m, err := parseDecide(data); err == nil {
			roundTrip(t, "decide", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseDecide(b) })
		}
		if m, err := parseJoinReq(data); err == nil {
			roundTrip(t, "joinreq", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseJoinReq(b) })
		}
		if m, err := parseJoinSync(data); err == nil {
			roundTrip(t, "joinsync", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseJoinSync(b) })
		}
		if m, err := parseAssignAck(data); err == nil {
			roundTrip(t, "assignack", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseAssignAck(b) })
		}
		if m, err := parseInstalled(data); err == nil {
			roundTrip(t, "installed", data, m, m.marshal(nil), func(b []byte) (any, error) { return parseInstalled(b) })
		}
	})
}
