package core

import (
	"testing"
)

// The table-lock threshold (Section 3.3): when a read-set is too large to
// multicast, tuples are upgraded to whole-table locks. Smaller messages,
// coarser conflicts.
func TestReadSetThresholdTradeoff(t *testing.T) {
	fine := run(t, Config{Sites: 3, Clients: 60, TotalTxns: 400, Seed: 31})
	coarse := run(t, Config{Sites: 3, Clients: 60, TotalTxns: 400, Seed: 31, ReadSetThreshold: 3})
	if fine.SafetyErr != nil || coarse.SafetyErr != nil {
		t.Fatalf("safety: %v / %v", fine.SafetyErr, coarse.SafetyErr)
	}
	// Coarser certification granularity must not reduce abort rates.
	if coarse.AbortRatePct < fine.AbortRatePct {
		t.Fatalf("table locks reduced aborts: %.2f%% < %.2f%%",
			coarse.AbortRatePct, fine.AbortRatePct)
	}
	// With threshold 3, neworder's ~10 stock reads collapse to a
	// Stock-table lock, so concurrent neworders conflict: abort rate must
	// rise substantially.
	if coarse.AbortRatePct < fine.AbortRatePct+5 {
		t.Fatalf("expected strong conflict inflation from table locks: %.2f%% vs %.2f%%",
			coarse.AbortRatePct, fine.AbortRatePct)
	}
	// And the wire traffic per delivered transaction must shrink.
	finePerMsg := float64(fine.NetKBps) * fine.Duration.Seconds() / float64(fine.GCS.Delivered)
	coarsePerMsg := float64(coarse.NetKBps) * coarse.Duration.Seconds() / float64(coarse.GCS.Delivered)
	if coarsePerMsg >= finePerMsg {
		t.Fatalf("table locks did not shrink messages: %.2f vs %.2f KB/delivery",
			coarsePerMsg, finePerMsg)
	}
}
