package tpcc

import (
	"repro/internal/db"
	"repro/internal/sim"
)

// RetryPolicy governs client resubmission after an explicit admission
// rejection (db.Rejected). Aborted transactions are still never resubmitted
// (Section 5.1) — a rejection is different: the transaction never executed,
// and the server explicitly invited a retry. The retried submission reuses
// the same transaction instance, so its TID survives and resubmission is
// idempotent end to end. The wait before each retry is fixed (backoff).
type RetryPolicy struct {
	// MaxAttempts is the total number of submissions tried, including the
	// first; 0 or 1 disables retry (a rejection is final).
	MaxAttempts int
}

// Enabled reports whether the policy allows any retry at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// Retry number n waits about baseBackoff·2^(n-1), capped at maxBackoff.
const (
	baseBackoff = 50 * sim.Millisecond
	maxBackoff  = 2 * sim.Second
)

// backoff computes the delay before retry number attempt (1 = first retry):
// exponential growth with a half-spread jitter drawn from the client's own
// RNG stream, so identical seeds produce identical retry schedules.
func backoff(attempt int, rng *sim.RNG) sim.Time {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
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

	retries int64
	giveUps int64
	pending int // backoff timers whose resubmission has not fired yet
}

// Retries reports resubmissions after rejections.
func (l *retryLoop) Retries() int64 { return l.retries }

// GiveUps reports transactions abandoned after exhausting MaxAttempts.
func (l *retryLoop) GiveUps() int64 { return l.giveUps }

// RetryPending reports whether any backoff timer holds an unsubmitted
// retry; quiescence detection must hold the run open for them.
func (l *retryLoop) RetryPending() bool { return l.pending > 0 }

// attempt carries one transaction through the loop, from its first
// submission to the outcome that is final. Its two continuations are bound
// once, so a refused submission, its backoff and its resubmission allocate
// nothing.
type attempt struct {
	loop *retryLoop
	txn  *db.Txn
	n    int // submissions so far
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
	at.txn, at.n = t, 1
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
		l.k.Schedule(backoff(at.n, l.rng), at.again)
		return
	}
	if o == db.Rejected && l.policy.Enabled() {
		l.giveUps++
	}
	at.txn = nil
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
