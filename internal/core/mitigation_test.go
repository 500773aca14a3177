package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// The Section 5.3 mitigations for sequencer buffer-share exhaustion:
// "increasing available buffer space or allocating a dedicated sequencer
// process."
func TestSequencerMitigations(t *testing.T) {
	base := Config{
		Sites: 3, Clients: 300, TotalTxns: 1200, Seed: 41,
		Faults:         faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05}},
		GCSBufferBytes: 24 * 1024, // tight pool
	}
	tight := run(t, base)
	if tight.SafetyErr != nil {
		t.Fatalf("safety: %v", tight.SafetyErr)
	}
	if tight.GCS.Blocked == 0 {
		t.Skip("tight pool did not block at this scale; mitigation not measurable")
	}

	// Mitigation 1: more buffer space.
	bigger := base
	bigger.GCSBufferBytes = 512 * 1024
	relaxed := run(t, bigger)
	if relaxed.SafetyErr != nil {
		t.Fatalf("safety: %v", relaxed.SafetyErr)
	}
	if relaxed.GCS.BlockedTime >= tight.GCS.BlockedTime {
		t.Fatalf("bigger buffers did not reduce blocking: %v vs %v",
			relaxed.GCS.BlockedTime, tight.GCS.BlockedTime)
	}

	// Mitigation 2: dedicated sequencer. The sequencer's buffer share
	// then carries only ordering traffic, so the member issuing sequence
	// numbers — the one whose blocking stalls the whole group — stops
	// starving. Hold the per-member share constant (the pool divides
	// among 4 members instead of 3) and compare blocking at the
	// sequencer member itself.
	seqBlocked := func(cfg Config) (sim.Time, int64) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.SafetyErr != nil {
			t.Fatalf("safety: %v", r.SafetyErr)
		}
		seq := m.Dedicated()
		if seq == nil {
			seq = m.Sites()[0] // member 1 sequences without the dedicated node
		}
		st := seq.Stack.Stats()
		return st.BlockedTime, r.Committed
	}
	tightSeqBlocked, _ := seqBlocked(base)
	dedicated := base
	dedicated.DedicatedSequencer = true
	dedicated.GCSBufferBytes = 32 * 1024
	dsSeqBlocked, dsCommitted := seqBlocked(dedicated)
	if dsSeqBlocked >= tightSeqBlocked {
		t.Fatalf("dedicated sequencer still starves: blocked %v vs %v",
			dsSeqBlocked, tightSeqBlocked)
	}
	if dsCommitted < tight.Committed*9/10 {
		t.Fatalf("dedicated sequencer lost throughput: %d vs %d", dsCommitted, tight.Committed)
	}
}

// A dedicated sequencer member must actually order all traffic.
func TestDedicatedSequencerOrders(t *testing.T) {
	m, err := New(Config{Sites: 3, Clients: 60, TotalTxns: 300, Seed: 42, DedicatedSequencer: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	ded := m.Dedicated()
	if ded == nil || ded.Stack == nil {
		t.Fatal("dedicated member missing")
	}
	if !ded.Stack.IsSequencer() {
		t.Fatal("dedicated member is not the sequencer")
	}
	for _, s := range m.Sites() {
		if s.Stack.IsSequencer() {
			t.Fatalf("database site %d still sequences", s.ID)
		}
	}
	// All the ordering (SEQ) traffic originates at the dedicated member:
	// it transmits despite casting no application messages.
	if ded.Stack.Stats().Sent == 0 {
		t.Fatal("dedicated sequencer sent nothing")
	}
}

// The dedicated member's counters are part of the run totals: a malformed
// datagram reaching node 0 must surface in Results.GCS.ParseErrors and in the
// summary's DROPS block like one reaching any database site.
func TestDedicatedSequencerCountersReachResults(t *testing.T) {
	m, err := New(Config{Sites: 3, Clients: 60, TotalTxns: 200, Seed: 43, DedicatedSequencer: true})
	if err != nil {
		t.Fatal(err)
	}
	ded := m.Dedicated()
	m.Kernel().ScheduleAt(sim.Second, func() { ded.RT.Deliver(1, []byte{0xff}) })
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.GCS.ParseErrors != 1 {
		t.Fatalf("GCS.ParseErrors = %d, want the one malformed datagram at node 0", r.GCS.ParseErrors)
	}
	if !strings.Contains(r.Summary(), "DROPS(cert=0 parse=1)") {
		t.Fatalf("summary hides the drop: %s", r.Summary())
	}
	if r.GCS.UniformStalls == 0 {
		t.Fatal("the sequencer's uniformity-gate stalls did not reach Results")
	}
}
