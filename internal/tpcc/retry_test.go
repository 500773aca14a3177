package tpcc

import (
	"testing"

	"repro/internal/db"
	"repro/internal/sim"
)

// TestRetryPolicyEnabled pins the disable semantics: one total attempt means
// a rejection is final.
func TestRetryPolicyEnabled(t *testing.T) {
	for _, tc := range []struct {
		attempts int
		want     bool
	}{{0, false}, {1, false}, {2, true}, {4, true}} {
		if got := (RetryPolicy{MaxAttempts: tc.attempts}).Enabled(); got != tc.want {
			t.Fatalf("MaxAttempts=%d: Enabled = %v, want %v", tc.attempts, got, tc.want)
		}
	}
}

// TestClientRetryAndGiveUp is TestAggregateRetryAndGiveUp for the individual
// tier, which runs the same retry loop: one Client against a server that
// refuses everything until, in the middle of some backoff, the gate opens.
// Refusals are retried within the budget, exhausted budgets are give-ups,
// and OnDone fires once per transaction, never between a rejection and its
// resubmission.
func TestClientRetryAndGiveUp(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.SetBackpressure(true)
	cl := &Client{
		Server: server,
		Gen:    NewGenerator(1, 1, DefaultCalibration(), sim.NewRNG(2)),
		Think:  100 * sim.Millisecond,
		Retry:  RetryPolicy{MaxAttempts: 3},
	}
	var outcomes []db.Outcome
	cl.OnDone = func(c *Client, _ *db.Txn, o db.Outcome) {
		if c.RetryPending() {
			t.Fatal("OnDone fired with a resubmission still pending")
		}
		outcomes = append(outcomes, o)
	}
	cl.Stop = func() bool { return cl.Issued() >= 12 }
	cl.Start(k, sim.NewRNG(3))
	var openGate func()
	openGate = func() {
		if cl.GiveUps() < 3 || !cl.RetryPending() {
			k.Schedule(sim.Millisecond, openGate)
			return
		}
		server.SetBackpressure(false)
	}
	k.Schedule(0, openGate)
	if err := k.RunUntil(sim.Minute); err != nil {
		t.Fatal(err)
	}

	if cl.RetryPending() {
		t.Fatal("retry still pending after a drained run")
	}
	if cl.Issued() != 12 || len(outcomes) != 12 {
		t.Fatalf("issued %d, OnDone fired %d times, want 12 and 12", cl.Issued(), len(outcomes))
	}
	var refused int64
	for _, o := range outcomes {
		if o == db.Rejected {
			refused++
		}
	}
	if refused < 3 || refused != cl.GiveUps() {
		t.Fatalf("%d transactions ended rejected, %d give-ups counted, want equal and >= 3", refused, cl.GiveUps())
	}
	// Each give-up spent the whole budget; the transaction in backoff when
	// the gate opened got in on its second or third submission; every later
	// one on its first.
	if r := cl.Retries() - 2*refused; r != 1 && r != 2 {
		t.Fatalf("%d retries for %d give-ups: the admitted-on-retry transaction used %d", cl.Retries(), refused, r)
	}
	if sub, _, _, rej := server.Totals(); sub != cl.Issued()+cl.Retries() || rej != refused+cl.Retries() {
		t.Fatalf("server saw %d submissions and %d rejections, want issued %d + retries %d and give-ups %d + retries",
			sub, rej, cl.Issued(), cl.Retries(), refused)
	}
}

// TestRetryBackoffBounds pins the exponential schedule: attempt n draws from
// [d/2, d] with d = 50ms·2^(n-1) capped at 2s, whatever the policy's budget.
func TestRetryBackoffBounds(t *testing.T) {
	tests := []struct {
		name    string
		attempt int
		wantD   sim.Time
	}{
		{"first retry", 1, 50 * sim.Millisecond},
		{"second doubles", 2, 100 * sim.Millisecond},
		{"default base", 5, 800 * sim.Millisecond},
		{"cap binds", 7, 2 * sim.Second},
		{"default cap", 12, 2 * sim.Second},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(7)
			for i := 0; i < 50; i++ {
				got := backoff(tc.attempt, rng)
				if got < tc.wantD/2 || got > tc.wantD {
					t.Fatalf("backoff(%d) = %v, want in [%v, %v]", tc.attempt, got, tc.wantD/2, tc.wantD)
				}
			}
		})
	}
}

// TestRetryBackoffDeterministic pins seed determinism: two RNGs with the
// same seed produce the identical retry schedule — the property that keeps
// whole-run replay byte-identical when rejections occur.
func TestRetryBackoffDeterministic(t *testing.T) {
	a, b := sim.NewRNG(99), sim.NewRNG(99)
	for attempt := 1; attempt < 8; attempt++ {
		da, db := backoff(attempt, a), backoff(attempt, b)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, da, db)
		}
	}
}

// FuzzRetryBackoff checks, for arbitrary attempts and seeds, that the delay
// always respects the schedule bounds and that replay from an equal seed is
// exact.
func FuzzRetryBackoff(f *testing.F) {
	f.Add(int64(1), 1)
	f.Add(int64(42), 5)
	f.Add(int64(-3), 9)
	f.Fuzz(func(t *testing.T, seed int64, attempt int) {
		attempt = attempt%12 + 1
		if attempt < 1 {
			attempt += 12
		}
		got := backoff(attempt, sim.NewRNG(seed))
		if again := backoff(attempt, sim.NewRNG(seed)); again != got {
			t.Fatalf("same seed %d gave %v and %v", seed, got, again)
		}
		// Recompute the nominal delay the implementation documents.
		d := 50 * sim.Millisecond
		for i := 1; i < attempt; i++ {
			d *= 2
		}
		d = min(d, 2*sim.Second)
		if got < d/2 || got > d {
			t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, got, d/2, d)
		}
	})
}
