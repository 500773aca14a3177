package tpcc

import (
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// RetryPolicy governs client resubmission after an explicit admission
// rejection (db.Rejected). Aborted transactions are still never resubmitted
// (Section 5.1) — a rejection is different: the transaction never executed,
// and the server explicitly invited a retry. The retried submission reuses
// the same transaction instance, so its TID survives and resubmission is
// idempotent end to end.
type RetryPolicy struct {
	// MaxAttempts is the total number of submissions tried, including the
	// first; 0 or 1 disables retry (a rejection is final).
	MaxAttempts int
	// BaseBackoff is the nominal delay before the first retry; attempt n
	// waits BaseBackoff·2^(n-1), capped at MaxBackoff. Defaults to 50ms.
	BaseBackoff sim.Time
	// MaxBackoff caps the exponential growth. Defaults to 2s.
	MaxBackoff sim.Time
}

// Enabled reports whether the policy allows any retry at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Backoff computes the delay before retry number attempt (1 = first retry):
// exponential growth with a half-spread jitter drawn from the client's own
// RNG stream, so identical seeds produce identical retry schedules.
func (p RetryPolicy) Backoff(attempt int, rng *sim.RNG) sim.Time {
	base := p.BaseBackoff
	if base <= 0 {
		base = 50 * sim.Millisecond
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = 2 * sim.Second
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	// Jitter over [d/2, d]: desynchronizes rejected clients so they do not
	// stampede back in lockstep.
	return d/2 + rng.UniformDur(0, d/2)
}

// retryLoop is the one implementation of the rule both client tiers follow
// after a rejection — back off and resubmit the same instance while the
// budget lasts, then give up — with the counters the rule keeps. Client and
// Aggregate embed it and bind it at Start; every transaction in flight runs
// through it as an attempt.
type retryLoop struct {
	k      *sim.Kernel
	rng    *sim.RNG
	server *db.Server
	policy RetryPolicy

	retries  int64
	giveUps  int64
	pending  int // backoff timers whose resubmission has not fired yet
	retryLat metrics.Sample
}

// Retries reports resubmissions after rejections.
func (l *retryLoop) Retries() int64 { return l.retries }

// GiveUps reports transactions abandoned after exhausting MaxAttempts.
func (l *retryLoop) GiveUps() int64 { return l.giveUps }

// RetryLat exposes the first-submit-to-final-outcome latency sample (ms) of
// transactions that needed at least one retry.
func (l *retryLoop) RetryLat() *metrics.Sample { return &l.retryLat }

// RetryPending reports whether any backoff timer holds an unsubmitted
// retry; quiescence detection must hold the run open for them.
func (l *retryLoop) RetryPending() bool { return l.pending > 0 }

// attempt carries one transaction through the loop, from its first
// submission to the outcome that is final. Its two continuations are bound
// once, so a refused submission, its backoff and its resubmission allocate
// nothing.
type attempt struct {
	loop    *retryLoop
	txn     *db.Txn
	n       int      // submissions so far
	firstAt sim.Time // when the first was made
	// resolved receives the final outcome, once: never between a rejection
	// and its resubmission.
	resolved func(*db.Txn, db.Outcome)

	done  func(*db.Txn, db.Outcome)
	again func()
}

func (at *attempt) bind(l *retryLoop, resolved func(*db.Txn, db.Outcome)) {
	at.loop, at.resolved = l, resolved
	at.done, at.again = at.onDone, at.resubmit
}

// submit makes the first submission of t.
func (at *attempt) submit(t *db.Txn) {
	at.txn, at.n, at.firstAt = t, 1, at.loop.k.Now()
	t.Done = at.done
	at.loop.server.Submit(t)
}

// onDone is the transaction's Done hook. A rejection within the retry budget
// schedules a backoff and a resubmission of the same instance (same TID —
// idempotent resubmission); every other outcome is final. Aborted
// transactions are not resubmitted (Section 5.1).
func (at *attempt) onDone(t *db.Txn, o db.Outcome) {
	l := at.loop
	if o == db.Rejected && at.n < l.policy.MaxAttempts {
		l.retries++
		l.pending++
		l.k.Schedule(l.policy.Backoff(at.n, l.rng), at.again)
		return
	}
	if o == db.Rejected && l.policy.Enabled() {
		l.giveUps++
	}
	if at.n > 1 {
		l.retryLat.Add((l.k.Now() - at.firstAt).Millis())
	}
	at.txn = nil // a thinking client does not pin its last transaction
	at.resolved(t, o)
}

// resubmit fires when a backoff ends. It proceeds whether or not the tier
// has stopped issuing: a transaction mid-retry is not cut off by budget
// exhaustion.
func (at *attempt) resubmit() {
	at.loop.pending--
	at.n++
	at.txn.ResetForRetry()
	at.loop.server.Submit(at.txn)
}
