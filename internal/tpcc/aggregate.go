package tpcc

import (
	"repro/internal/db"
	"repro/internal/dbsm"
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
// An arrival is drawn in full (Generator.Draw: same draws, same counters as
// an individual client's) but built only if a server admits it, through the
// db.Txn.Build hook; past saturation nearly every arrival is refused on
// every attempt and abandoned, and that whole cycle allocates nothing.
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

	retryLoop
	// free holds the records of arrivals no server ever admitted, for reuse.
	// An admitted transaction stays reachable from the server, its lock
	// queues and the replica after its outcome, so its record is left to
	// the collector; and once Stop ends the stream the list is dropped and
	// stays empty, so a finished model a caller keeps does not pin it.
	free sim.FreeList[*arrival]
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
	// fire is tick as a func value, bound once by Start: a method value
	// handed to the kernel would allocate at every window.
	fire func()

	issued        int64
	issuedByClass [NumArrivalClasses]int64
}

// arrival is one emulated user's transaction from its draw to its final
// outcome: the retry state, the db.Txn shell the server sees, and the draft
// with backing for the largest key sets any class draws, with every
// continuation bound when the record is first allocated. The keys come last
// so the collector, which scans an object up to its last pointer, skips them.
type arrival struct {
	attempt
	agg   *Aggregate
	build func(*db.Txn)
	txn   db.Txn
	draft Draft
	keys  [maxFetchOnly + maxReads + maxWrites]dbsm.TupleID
}

// Start begins the arrival process. The first tick is deferred by a uniform
// fraction of the window, de-synchronizing sites the way individual clients
// de-synchronize their first think time.
func (a *Aggregate) Start(k *sim.Kernel, rng *sim.RNG) {
	a.retryLoop = retryLoop{k: k, rng: rng, server: a.Server, policy: a.Retry}
	a.unfired = a.Population
	a.loadFactor = 1
	if a.Window <= 0 {
		a.Window = 10 * sim.Millisecond
	}
	a.fire = a.tick
	k.Schedule(rng.UniformDur(0, a.Window), a.fire)
}

// Issued reports how many transactions this aggregate has submitted
// (retries of a rejected transaction do not count again).
func (a *Aggregate) Issued() int64 { return a.issued }

// IssuedOfClass reports submissions of one top-level mix class.
func (a *Aggregate) IssuedOfClass(c ArrivalClass) int64 { return a.issuedByClass[c] }

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
			a.free.Drop()
			return
		}
		a.arrive()
	}
	a.k.Schedule(a.Window, a.fire)
}

// classOf labels one arrival with a top-level class by the calibrated mix
// weights — the same single uniform draw Generator.Next spends on its mix
// dispatch, so per-transaction draw cost matches individual mode.
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

// arrive is one emulated user's submission: a uniform population index
// picks the home warehouse, the mix labels the class, and the generator
// draws the transaction into a record; the first submission follows at once.
// The user was already removed from its pool by tick; the final outcome
// returns it to the thinking pool.
func (a *Aggregate) arrive() {
	a.issued++
	class := a.classOf()
	a.issuedByClass[class]++
	wh := a.HomeWH(a.rng.Intn(a.Population))
	r := a.record()
	a.Gen.Draw(&r.draft, class, wh)
	r.txn = db.Txn{TID: r.draft.TID, Class: r.draft.Class, Build: r.build}
	r.submit(&r.txn)
}

// record takes an arrival record off the free list, or allocates one and
// binds its continuations.
func (a *Aggregate) record() *arrival {
	r := a.free.Get()
	if r != nil {
		return r
	}
	r = &arrival{agg: a}
	r.bind(&a.retryLoop, r.resolved)
	r.build = r.admit
	r.draft.FetchOnly = r.keys[:0:maxFetchOnly]
	r.draft.Reads = r.keys[maxFetchOnly : maxFetchOnly : maxFetchOnly+maxReads]
	r.draft.Writes = r.keys[maxFetchOnly+maxReads : maxFetchOnly+maxReads]
	return r
}

// admit is the record's db.Txn.Build hook: a server let the transaction in,
// so it is built now, from the draft drawn at arrival.
func (r *arrival) admit(t *db.Txn) {
	r.agg.Gen.Build(&r.draft, t)
}

// resolved receives the arrival's final outcome from the retry loop: report
// it, return the emulated user to the thinking pool, and recycle the record
// if no server ever held the transaction — which its unspent Build hook
// tells, since the admitting Submit clears it. An admitted record stays
// reachable from the server and is left to the collector.
func (r *arrival) resolved(t *db.Txn, o db.Outcome) {
	a := r.agg
	if a.OnDone != nil {
		a.OnDone(t, o)
	}
	a.thinking++
	switch {
	case a.stopped: // the list is dropped
	case t.Build != nil:
		a.free.Put(r)
	default:
		a.free.Discard()
	}
}
