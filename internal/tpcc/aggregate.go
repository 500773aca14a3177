package tpcc

import (
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Aggregate replaces one site's population of individual Clients with a
// calibrated compound arrival process. A closed population of N emulated
// users, each thinking for an exponential time with the calibrated mean
// between transactions, submits — by the memorylessness of the exponential —
// as a state-dependent Poisson process with rate
//
//	thinking × loadFactor / Think
//
// where thinking is the number of users currently between transactions
// (N minus the transactions in flight, in backoff, or swallowed by a crashed
// server). The process is sampled in fixed tick windows: one simulation
// event per site per window draws the window's arrival count from the sim
// RNG (sim.RNG.Poisson), labels each arrival with a transaction class by the
// calibrated mix weights, and submits through the exact same path a Client
// uses — db.Server.Submit, admission rejection, RetryPolicy backoff,
// give-up accounting — so overload semantics are unchanged. Memory and
// startup cost are O(sites + in-flight), not O(population): no per-client
// object, RNG stream, or initial think-timer event exists.
//
// The equivalence is statistical, not per-seed: an aggregate run is a
// different (equally valid) realization of the same workload, validated at
// 500 clients against individual-client runs within CI95 (see
// core/aggregate_equivalence_test.go).
type Aggregate struct {
	// Server is the database site the population attaches to.
	Server *db.Server
	// Gen produces the transactions; keying decisions draw from its stream
	// exactly as under individual clients.
	Gen *Generator
	// Proc is the calibrated arrival process (mix weights + think time),
	// extracted by Calibration.ArrivalProcess.
	Proc ArrivalProcess
	// Retry governs resubmission after admission rejections; the zero
	// value makes every rejection final.
	Retry RetryPolicy
	// Population is the emulated user count this aggregate stands in for.
	Population int
	// HomeWH maps a dense population index in [0, Population) to the home
	// warehouse of that emulated user, encoding the site's client placement
	// (round-robin, group-homed, or primary-site) without materializing a
	// per-client table. Each arrival draws a uniform index.
	HomeWH func(k int) int
	// Stop, if set, is consulted before each arrival: returning true ends
	// the arrival stream (the global transaction budget).
	Stop func() bool
	// OnDone observes every finally-completed transaction, once per
	// transaction after retries resolve — the Client.OnDone contract.
	OnDone func(t *db.Txn, o db.Outcome)
	// Window is the tick-window length (default 10ms): one batched arrival
	// event per site per window.
	Window sim.Time

	k   *sim.Kernel
	rng *sim.RNG
	// unfired is the warmup pool: users who have not submitted their first
	// transaction yet. Individual clients de-synchronize by deferring their
	// first issue uniformly over one think interval, so this pool drains by
	// binomial thinning with the uniform hazard w/(Think−now) — NOT the
	// exponential hazard — and empties exactly at t = Think. Ignoring the
	// distinction would under-offer load by half a think time per user and
	// bias tpmC measurably low on paper-sized runs.
	unfired int
	// thinking counts users between transactions (exponential residual).
	thinking   int
	loadFactor float64
	stopped    bool

	issued        int64
	issuedByClass [NumArrivalClasses]int64
	retries       int64
	giveUps       int64
	retryPending  int
	retryLat      metrics.Sample
}

// Start begins the arrival process. The first tick is deferred by a uniform
// fraction of the window, de-synchronizing sites the way individual clients
// de-synchronize their first think time.
func (a *Aggregate) Start(k *sim.Kernel, rng *sim.RNG) {
	a.k = k
	a.rng = rng
	a.unfired = a.Population
	a.loadFactor = 1
	if a.Window <= 0 {
		a.Window = 10 * sim.Millisecond
	}
	k.Schedule(rng.UniformDur(0, a.Window), a.tick)
}

// Issued reports how many transactions this aggregate has submitted
// (retries of a rejected transaction do not count again).
func (a *Aggregate) Issued() int64 { return a.issued }

// IssuedOfClass reports submissions of one top-level mix class.
func (a *Aggregate) IssuedOfClass(c ArrivalClass) int64 { return a.issuedByClass[c] }

// Retries reports resubmissions after rejections.
func (a *Aggregate) Retries() int64 { return a.retries }

// GiveUps reports transactions abandoned after exhausting MaxAttempts.
func (a *Aggregate) GiveUps() int64 { return a.giveUps }

// RetryLat exposes the first-submit-to-final-outcome latency sample (ms) of
// transactions that needed at least one retry.
func (a *Aggregate) RetryLat() *metrics.Sample { return &a.retryLat }

// RetryPending reports whether any backoff timer holds an unsubmitted
// retry; quiescence detection must hold the run open for them.
func (a *Aggregate) RetryPending() bool { return a.retryPending > 0 }

// SetLoadFactor scales the offered load: the arrival rate multiplies by f
// (f <= 1 restores nominal load), mirroring Client.SetLoadFactor's think
// compression.
func (a *Aggregate) SetLoadFactor(f float64) { a.loadFactor = f }

// tick is the batched arrival event: one per site per window. The warmup
// pool drains by binomial thinning under the uniform first-fire hazard; the
// steady pool's count is drawn from the state-dependent Poisson rate frozen
// at the window start (a tau-leap step, exact in the window→0 limit and
// accurate while the window is far below the think time) and clamped to the
// pool. The drawn total then drains through the submission path.
//
//hot:path
func (a *Aggregate) tick() {
	if a.stopped {
		return
	}
	var n1 int
	if a.unfired > 0 {
		rem := a.Proc.Think - a.k.Now()
		if rem <= a.Window {
			n1 = a.unfired
		} else {
			n1 = a.rng.Binomial(a.unfired, float64(a.Window)/float64(rem))
		}
		a.unfired -= n1
	}
	lf := a.loadFactor
	if lf < 1 {
		lf = 1
	}
	mean := float64(a.thinking) * lf * float64(a.Window) / float64(a.Proc.Think)
	n2 := a.rng.Poisson(mean)
	if n2 > a.thinking {
		n2 = a.thinking
	}
	a.thinking -= n2
	for i := n1 + n2; i > 0; i-- {
		if a.Stop != nil && a.Stop() {
			a.stopped = true
			return
		}
		a.arrive()
	}
	a.k.Schedule(a.Window, a.tick)
}

// classOf labels one arrival with a top-level class by the calibrated mix
// weights — the same single uniform draw Generator.Next spends on its mix
// dispatch, so per-transaction draw cost matches individual mode.
//
//hot:path
func (a *Aggregate) classOf() ArrivalClass {
	r := a.rng.Float64()
	acc := 0.0
	for c := ArrivalNewOrder; c < NumArrivalClasses-1; c++ {
		acc += a.Proc.Weights[c]
		if r < acc {
			return c
		}
	}
	return NumArrivalClasses - 1
}

// arrive materializes one emulated user's submission: a uniform population
// index picks the home warehouse, the mix labels the class, and the
// generator builds the transaction. The user was already removed from its
// pool by tick; completion returns it to the thinking pool.
func (a *Aggregate) arrive() {
	a.issued++
	class := a.classOf()
	a.issuedByClass[class]++
	wh := a.HomeWH(a.rng.Intn(a.Population))
	t := a.Gen.NextOfClass(class, wh)
	a.submit(t, 1, a.k.Now())
}

// submit runs one attempt of a transaction — the Client.submit contract: a
// rejection within the retry budget schedules a backoff and resubmits the
// same instance; every other outcome is final, returning the emulated user
// to the thinking pool. Retries of an already-admitted transaction proceed
// even after the arrival stream stops, exactly as an individual client
// mid-transaction is not cut off by budget exhaustion.
func (a *Aggregate) submit(t *db.Txn, attempt int, firstAt sim.Time) {
	t.Done = func(t *db.Txn, o db.Outcome) {
		if o == db.Rejected && attempt < a.Retry.MaxAttempts {
			a.retries++
			a.retryPending++
			a.k.Schedule(a.Retry.Backoff(attempt, a.rng), func() {
				a.retryPending--
				t.ResetForRetry()
				a.submit(t, attempt+1, firstAt)
			})
			return
		}
		if o == db.Rejected && a.Retry.Enabled() && attempt >= a.Retry.MaxAttempts {
			a.giveUps++
		}
		if attempt > 1 {
			a.retryLat.Add((a.k.Now() - firstAt).Millis())
		}
		if a.OnDone != nil {
			a.OnDone(t, o)
		}
		a.thinking++
	}
	a.Server.Submit(t)
}
