package gcs

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/runtimeapi"
)

func TestDataRoundTrip(t *testing.T) {
	f := func(sender int32, seq uint64, frag, payload byte, data []byte) bool {
		if len(data) > 60000 {
			data = data[:60000]
		}
		m := dataMsg{
			Sender:  runtimeapi.NodeID(sender),
			Seq:     seq,
			Frag:    frag,
			Payload: payload,
			Data:    data,
		}
		wire := m.marshal(nil)
		got, err := parseData(wire)
		if err != nil {
			return false
		}
		return got.Sender == m.Sender && got.Seq == m.Seq && got.Frag == m.Frag &&
			got.Payload == m.Payload && bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNackRoundTrip(t *testing.T) {
	m := nackMsg{Target: 7, Ranges: []seqRange{{1, 5}, {9, 9}, {100, 200}}}
	got, err := parseNack(m.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Target != 7 || len(got.Ranges) != 3 || got.Ranges[2] != (seqRange{100, 200}) {
		t.Fatalf("got %+v", got)
	}
}

func TestGossipRoundTrip(t *testing.T) {
	m := gossipMsg{ViewID: 3, Round: 99, W: 0b101, M: []uint64{1, 2, 3}, S: []uint64{0, 1, 2}, H: []uint64{4, 5, 6}}
	got, err := parseGossip(m.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.ViewID != 3 || got.Round != 99 || got.W != 0b101 {
		t.Fatalf("header: %+v", got)
	}
	for i := range m.M {
		if got.M[i] != m.M[i] || got.S[i] != m.S[i] {
			t.Fatalf("vectors: %+v", got)
		}
	}
}

func TestAssignsRoundTrip(t *testing.T) {
	in := []seqAssign{{Sender: 1, Seq: 10, Global: 100}, {Sender: 2, Seq: 20, Global: 101}}
	got, err := parseAssigns(marshalAssigns(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Fatalf("got %+v", got)
	}
}

func TestViewChangeMessagesRoundTrip(t *testing.T) {
	p := proposeMsg{NewViewID: 4, Proposer: 2, Members: []runtimeapi.NodeID{1, 2, 3}}
	gp, err := parsePropose(p.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gp.NewViewID != 4 || gp.Proposer != 2 || len(gp.Members) != 3 || gp.Members[2] != 3 {
		t.Fatalf("propose: %+v", gp)
	}

	a := flushAckMsg{NewViewID: 4, Contig: []memberSeq{{1, 10}, {2, 20}}}
	ga, err := parseFlushAck(a.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ga.NewViewID != 4 || len(ga.Contig) != 2 || ga.Contig[1] != (memberSeq{2, 20}) {
		t.Fatalf("flushack: %+v", ga)
	}

	d := decideMsg{
		NewViewID: 4, Proposer: 2,
		Members: []runtimeapi.NodeID{1, 2},
		Targets: []flushTarget{{Member: 1, Seq: 10, Holder: 2}, {Member: 3, Seq: 7, Holder: 1}},
	}
	gd, err := parseDecide(d.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gd.NewViewID != 4 || len(gd.Members) != 2 || len(gd.Targets) != 2 ||
		gd.Targets[1] != (flushTarget{Member: 3, Seq: 7, Holder: 1}) {
		t.Fatalf("decide: %+v", gd)
	}

	i := installedMsg{NewViewID: 9}
	gi, err := parseInstalled(i.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gi.NewViewID != 9 {
		t.Fatalf("installed: %+v", gi)
	}

	hb := heartbeatMsg{ViewID: 5}
	ghb, err := parseHeartbeat(hb.marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ghb.ViewID != 5 {
		t.Fatalf("heartbeat: %+v", ghb)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	msgs := [][]byte{
		(&dataMsg{Data: []byte("abc")}).marshal(nil),
		(&nackMsg{Target: 1, Ranges: []seqRange{{1, 2}}}).marshal(nil),
		(&gossipMsg{M: []uint64{1}, S: []uint64{1}, H: []uint64{1}}).marshal(nil),
		(&proposeMsg{Members: []runtimeapi.NodeID{1}}).marshal(nil),
		(&flushAckMsg{Contig: []memberSeq{{1, 1}}}).marshal(nil),
		(&decideMsg{Members: []runtimeapi.NodeID{1}, Targets: []flushTarget{{1, 1, 1}}}).marshal(nil),
	}
	parsers := []func([]byte) error{
		func(b []byte) error { _, err := parseData(b); return err },
		func(b []byte) error { _, err := parseNack(b); return err },
		func(b []byte) error { _, err := parseGossip(b); return err },
		func(b []byte) error { _, err := parsePropose(b); return err },
		func(b []byte) error { _, err := parseFlushAck(b); return err },
		func(b []byte) error { _, err := parseDecide(b); return err },
	}
	for i, wire := range msgs {
		for cut := 0; cut < len(wire); cut++ {
			if err := parsers[i](wire[:cut]); err == nil {
				t.Fatalf("parser %d accepted truncation at %d", i, cut)
			}
		}
		if err := parsers[i](wire); err != nil {
			t.Fatalf("parser %d rejected full message: %v", i, err)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := kindData; k <= kindInstalled; k++ {
		if kindName(k) == "" {
			t.Fatalf("no name for kind %d", k)
		}
	}
	if kindName(200) != "kind(200)" {
		t.Fatal("unknown kind formatting")
	}
}
