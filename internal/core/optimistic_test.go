package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/sim"
)

// tightBuffers reproduces the paper's constrained buffer pool, amplifying
// retransmission-driven reordering under loss.
const tightBuffers = 96 * 1024

// TestOptimisticFaultFreeLowerDecisionLatency is the protocol-comparison
// acceptance check: on a fault-free LAN the optimistic variant must decide
// certification strictly earlier than the conservative one — the tentative
// verdict lands one ordering round before the sequencer's assignment — at
// equal throughput (the same transactions commit, in the same order).
func TestOptimisticFaultFreeLowerDecisionLatency(t *testing.T) {
	run := func(p Protocol) (*Model, *Results) {
		return runModel(t, Config{
			Sites:      3,
			Clients:    90,
			TotalTxns:  500,
			Seed:       31,
			Protocol:   p,
			MaxSimTime: 10 * sim.Minute,
		})
	}
	mc, rc := run(ProtocolConservative)
	mo, ro := run(ProtocolOptimistic)

	if rc.SafetyErr != nil || ro.SafetyErr != nil {
		t.Fatalf("safety: conservative=%v optimistic=%v", rc.SafetyErr, ro.SafetyErr)
	}
	if rc.CertDrops != 0 || ro.CertDrops != 0 {
		t.Fatalf("drops: conservative=%d optimistic=%d", rc.CertDrops, ro.CertDrops)
	}
	// Equal throughput: the protocols decide identically, so the same
	// transactions commit — position by position.
	if rc.Committed != ro.Committed {
		t.Fatalf("committed: conservative=%d optimistic=%d", rc.Committed, ro.Committed)
	}
	consLog := mc.Sites()[0].Replica.CommitLog().Entries()
	optLog := mo.Sites()[0].Replica.CommitLog().Entries()
	if len(consLog) != len(optLog) {
		t.Fatalf("commit logs: conservative=%d optimistic=%d", len(consLog), len(optLog))
	}
	for i := range consLog {
		if consLog[i] != optLog[i] {
			t.Fatalf("position %d: conservative %+v, optimistic %+v", i, consLog[i], optLog[i])
		}
	}
	// The headline claim: strictly lower mean certification-decision
	// latency, while the final outcome latency stays in the same regime.
	if ro.MeanCertDecideMS >= rc.MeanCertDecideMS {
		t.Fatalf("optimistic decide latency %.3fms not below conservative %.3fms",
			ro.MeanCertDecideMS, rc.MeanCertDecideMS)
	}
	// Under the conservative protocol decision and outcome coincide.
	if rc.MeanCertDecideMS != rc.CertLat.Mean() {
		t.Fatalf("conservative decide %.3fms != outcome %.3fms",
			rc.MeanCertDecideMS, rc.CertLat.Mean())
	}
	// The pipeline actually ran: followers speculated and pre-applied.
	if ro.Tentative == 0 || ro.PreApplied == 0 {
		t.Fatalf("optimistic run never speculated: tentative=%d preapplied=%d",
			ro.Tentative, ro.PreApplied)
	}
	// Even fault-free, concurrent casts can spontaneously reorder (a
	// sender sees its own message instantly, the sequencer may order a
	// competing one first) — but mismatches must be rare, not the norm.
	if ro.Rollbacks*20 > ro.Tentative {
		t.Fatalf("fault-free optimistic run rolled back %d of %d speculations",
			ro.Rollbacks, ro.Tentative)
	}
}

// TestOptimisticRollbackPathUnderBurstyLossAndDrift drives the rollback
// machinery for real: bursty loss plus clock drift reorder the spontaneous
// delivery against the final order, forcing tentative/final mismatches. The
// run must exercise rollbacks and still commit the identical sequence at
// every operational site.
func TestOptimisticRollbackPathUnderBurstyLossAndDrift(t *testing.T) {
	m, r := runModel(t, Config{
		Sites:      3,
		Clients:    120,
		TotalTxns:  600,
		Seed:       35,
		Protocol:   ProtocolOptimistic,
		MaxSimTime: 10 * sim.Minute,
		Faults: faults.Config{
			ClockDriftRate: 0.05,
			Loss:           faults.Loss{Kind: faults.LossBursty, Rate: 0.08, MeanBurst: 5},
		},
		GCSBufferBytes: tightBuffers,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under bursty loss + drift: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("%d local/global inconsistencies", r.Inconsistencies)
	}
	if r.GCS.Mispredicted == 0 {
		t.Fatal("no stack-level order mispredictions: the schedule exercised nothing")
	}
	if r.Rollbacks == 0 {
		t.Fatal("no replica-level rollbacks: the undo path went untested")
	}
	if r.Recertified == 0 {
		t.Fatal("no re-certifications after rollback")
	}
	// Identical commit sequences at all operational sites, re-checked
	// explicitly against the internal/check verdict surface.
	if v := check.Logs(siteLogs(m)); v != nil {
		t.Fatalf("checker flagged the run: %v", v)
	}
	ref := m.Sites()[0].Replica.CommitLog().Entries()
	if len(ref) == 0 {
		t.Fatal("nothing committed under faults")
	}
	for _, s := range m.Sites()[1:] {
		log := s.Replica.CommitLog().Entries()
		if len(log) != len(ref) {
			t.Fatalf("site %d committed %d, site 1 committed %d", s.ID, len(log), len(ref))
		}
		for i := range ref {
			if log[i] != ref[i] {
				t.Fatalf("site %d diverges at %d: %+v vs %+v", s.ID, i, log[i], ref[i])
			}
		}
	}
}
