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
// RetryLat samples exactly the transactions that needed a retry, and OnDone
// fires once per transaction, never between a rejection and its resubmission.
func TestClientRetryAndGiveUp(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.SetBackpressure(true)
	cl := &Client{
		Server: server,
		Gen:    NewGenerator(1, 1, DefaultCalibration(), sim.NewRNG(2)),
		Think:  100 * sim.Millisecond,
		Retry:  RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * sim.Millisecond, MaxBackoff: 200 * sim.Millisecond},
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
	if n := int64(cl.RetryLat().N()); n != refused+1 {
		t.Fatalf("%d retry latencies, want one per give-up plus the one admitted on a retry (%d)", n, refused+1)
	}
	if min := cl.RetryLat().Min(); min < 10 {
		t.Fatalf("shortest retried latency %.1fms, below the shortest first backoff", min)
	}
	if sub, _, _, rej := server.Totals(); sub != cl.Issued()+cl.Retries() || rej != refused+cl.Retries() {
		t.Fatalf("server saw %d submissions and %d rejections, want issued %d + retries %d and give-ups %d + retries",
			sub, rej, cl.Issued(), cl.Retries(), refused)
	}
}

// TestRetryBackoffBounds pins the exponential schedule: attempt n draws from
// [d/2, d] with d = Base·2^(n-1) capped at MaxBackoff, defaults applied when
// the policy leaves fields zero.
func TestRetryBackoffBounds(t *testing.T) {
	tests := []struct {
		name    string
		p       RetryPolicy
		attempt int
		wantD   sim.Time
	}{
		{"first retry", RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * sim.Millisecond, MaxBackoff: sim.Second}, 1, 100 * sim.Millisecond},
		{"second doubles", RetryPolicy{MaxAttempts: 4, BaseBackoff: 100 * sim.Millisecond, MaxBackoff: sim.Second}, 2, 200 * sim.Millisecond},
		{"cap binds", RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * sim.Millisecond, MaxBackoff: sim.Second}, 7, sim.Second},
		{"default base", RetryPolicy{MaxAttempts: 4}, 1, 50 * sim.Millisecond},
		{"default cap", RetryPolicy{MaxAttempts: 16, BaseBackoff: 50 * sim.Millisecond}, 12, 2 * sim.Second},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rng := sim.NewRNG(7)
			for i := 0; i < 50; i++ {
				got := tc.p.Backoff(tc.attempt, rng)
				if got < tc.wantD/2 || got > tc.wantD {
					t.Fatalf("Backoff(%d) = %v, want in [%v, %v]", tc.attempt, got, tc.wantD/2, tc.wantD)
				}
			}
		})
	}
}

// TestRetryBackoffDeterministic pins seed determinism: two RNGs with the
// same seed produce the identical retry schedule — the property that keeps
// whole-run replay byte-identical when rejections occur.
func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 50 * sim.Millisecond, MaxBackoff: 2 * sim.Second}
	a, b := sim.NewRNG(99), sim.NewRNG(99)
	for attempt := 1; attempt < 8; attempt++ {
		da, db := p.Backoff(attempt, a), p.Backoff(attempt, b)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, da, db)
		}
	}
}

// FuzzRetryBackoff checks, for arbitrary policies and seeds, that the delay
// always respects the schedule bounds and that replay from an equal seed is
// exact.
func FuzzRetryBackoff(f *testing.F) {
	f.Add(int64(1), 1, int64(50*sim.Millisecond), int64(2*sim.Second))
	f.Add(int64(42), 5, int64(0), int64(0))
	f.Add(int64(-3), 9, int64(sim.Microsecond), int64(sim.Millisecond))
	f.Fuzz(func(t *testing.T, seed int64, attempt int, base, capNS int64) {
		attempt = attempt%12 + 1
		if attempt < 1 {
			attempt += 12
		}
		p := RetryPolicy{
			MaxAttempts: attempt + 1,
			BaseBackoff: sim.Time(base % int64(10*sim.Second)),
			MaxBackoff:  sim.Time(capNS % int64(10*sim.Second)),
		}
		got := p.Backoff(attempt, sim.NewRNG(seed))
		if again := p.Backoff(attempt, sim.NewRNG(seed)); again != got {
			t.Fatalf("same seed %d gave %v and %v", seed, got, again)
		}
		// Recompute the nominal delay the implementation documents.
		b := p.BaseBackoff
		if b <= 0 {
			b = 50 * sim.Millisecond
		}
		c := p.MaxBackoff
		if c <= 0 {
			c = 2 * sim.Second
		}
		d := b
		for i := 1; i < attempt && d < c; i++ {
			d *= 2
		}
		if d > c {
			d = c
		}
		if got < d/2 || got > d {
			t.Fatalf("Backoff(%d) = %v outside [%v, %v] (policy %+v)", attempt, got, d/2, d, p)
		}
	})
}
