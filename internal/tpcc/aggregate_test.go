package tpcc

import (
	"math"
	"slices"
	"testing"

	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/sim"
)

func newAggUnderTest(k *sim.Kernel, server *db.Server, pop int, retry RetryPolicy) *Aggregate {
	cal := DefaultCalibration()
	gen := NewGenerator(1, Warehouses(pop), cal, sim.NewRNG(7).Fork("gen"))
	return &Aggregate{
		Server:     server,
		Gen:        gen,
		Proc:       cal.ArrivalProcess(),
		Retry:      retry,
		Population: pop,
		HomeWH:     func(k int) int { return k / ClientsPerWarehouse },
	}
}

func newAggServer(k *sim.Kernel) *db.Server {
	cpus := csrt.NewCPUSet(1, k, nil)
	st := db.NewStorage(k, db.StorageConfig{}, sim.NewRNG(3))
	return db.NewServer(k, 1, cpus, st)
}

// TestAggregateWarmupDrains pins the de-synchronized start: every emulated
// user fires its first transaction within one think interval (uniformly,
// like an individual client's deferred first issue), so by t = Think the
// warmup pool is empty and at least Population transactions were submitted.
func TestAggregateWarmupDrains(t *testing.T) {
	k := sim.NewKernel()
	a := newAggUnderTest(k, newAggServer(k), 200, RetryPolicy{})
	a.Start(k, sim.NewRNG(11).Fork("agg"))
	if err := k.RunUntil(a.Proc.Think + 2*a.Window); err != nil {
		t.Fatal(err)
	}
	if a.unfired != 0 {
		t.Fatalf("warmup pool not drained after one think interval: %d unfired", a.unfired)
	}
	if a.Issued() < 200 {
		t.Fatalf("only %d submissions after warmup, want >= population 200", a.Issued())
	}
}

// TestAggregatePoolConservation checks the bookkeeping invariant: every
// user is always in exactly one of the pools — unfired, thinking, or in
// flight (submitted and not finally resolved) — at every point of the run.
func TestAggregatePoolConservation(t *testing.T) {
	k := sim.NewKernel()
	a := newAggUnderTest(k, newAggServer(k), 100, RetryPolicy{})
	var done int64
	a.OnDone = func(t *db.Txn, o db.Outcome) { done++ }
	a.Start(k, sim.NewRNG(13).Fork("agg"))
	for i := 0; i < 40; i++ {
		if err := k.RunUntil(sim.Time(i) * sim.Second); err != nil {
			t.Fatal(err)
		}
		inFlight := a.Issued() - done
		if got := int64(a.unfired+a.thinking) + inFlight; got != 100 {
			t.Fatalf("t=%ds: pools unbalanced: unfired=%d thinking=%d inflight=%d (sum %d, want 100)",
				i, a.unfired, a.thinking, inFlight, got)
		}
	}
}

// TestAggregateRetryAndGiveUp drives the aggregate against a server with a
// tiny admission cap: rejections must be retried with backoff through the
// same RetryPolicy contract a Client honors, exhausted budgets counted as
// give-ups, and OnDone fired exactly once per transaction.
func TestAggregateRetryAndGiveUp(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.MaxActive = 1
	retry := RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * sim.Millisecond, MaxBackoff: 200 * sim.Millisecond}
	a := newAggUnderTest(k, server, 150, retry)
	var done int64
	budget := 300
	a.Stop = func() bool {
		if budget == 0 {
			return true
		}
		budget--
		return false
	}
	a.OnDone = func(t *db.Txn, o db.Outcome) { done++ }
	a.Start(k, sim.NewRNG(29).Fork("agg"))
	if err := k.RunUntil(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if a.RetryPending() {
		t.Fatal("retry still pending after a drained run")
	}
	if a.Retries() == 0 {
		t.Fatal("admission cap of 1 produced no retries")
	}
	if a.GiveUps() == 0 {
		t.Fatal("admission cap of 1 produced no give-ups")
	}
	if done != a.Issued() {
		t.Fatalf("OnDone fired %d times for %d issued transactions", done, a.Issued())
	}
	if a.Issued() != 300 {
		t.Fatalf("issued %d, want the full budget of 300", a.Issued())
	}
	sub, _, _, rej := server.Totals()
	if sub != a.Issued()+a.Retries() {
		t.Fatalf("server saw %d submissions, want issued %d + retries %d",
			sub, a.Issued(), a.Retries())
	}
	if rej == 0 {
		t.Fatal("no rejections recorded at the server")
	}
}

// TestAggregateClassMix pins the per-class thinning: issued counts per
// top-level class must match the calibrated mix weights.
func TestAggregateClassMix(t *testing.T) {
	k := sim.NewKernel()
	a := newAggUnderTest(k, newAggServer(k), 3000, RetryPolicy{})
	a.Start(k, sim.NewRNG(31).Fork("agg"))
	if err := k.RunUntil(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	total := a.Issued()
	if total < 10000 {
		t.Fatalf("only %d transactions issued, want a sample of >= 10000", total)
	}
	for c := ArrivalNewOrder; c < NumArrivalClasses; c++ {
		got := float64(a.IssuedOfClass(c)) / float64(total)
		want := a.Proc.Weights[c]
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("class %d share %.3f, want ~%.3f", c, got, want)
		}
	}
}

// TestAggregateDeterministic pins reproducibility: the same seed drives the
// identical arrival sequence.
func TestAggregateDeterministic(t *testing.T) {
	run := func() (int64, [NumArrivalClasses]int64, int64) {
		k := sim.NewKernel()
		a := newAggUnderTest(k, newAggServer(k), 500, RetryPolicy{})
		a.Start(k, sim.NewRNG(43).Fork("agg"))
		if err := k.RunUntil(time30s()); err != nil {
			t.Fatal(err)
		}
		return a.Issued(), a.issuedByClass, k.Executed()
	}
	i1, c1, e1 := run()
	i2, c2, e2 := run()
	if i1 != i2 || c1 != c2 || e1 != e2 {
		t.Fatalf("same seed diverged: issued %d/%d classes %v/%v events %d/%d", i1, i2, c1, c2, e1, e2)
	}
}

func time30s() sim.Time { return 30 * sim.Second }

// boundAgg is an aggregate bound to its kernel and server the way Start binds
// it, minus the tick: the test calls arrive itself.
func boundAgg(k *sim.Kernel, server *db.Server, retry RetryPolicy) *Aggregate {
	a := newAggUnderTest(k, server, 100000, retry)
	a.retryLoop = retryLoop{k: k, rng: sim.NewRNG(5).Fork("agg"), server: server, policy: retry}
	return a
}

// TestAggregateDrawPathZeroAlloc pins the zero-allocation property of the
// arrival path past saturation. The per-window draws — the Poisson and
// Binomial samplers, the class thinning, the home-warehouse closure — must
// not allocate; and with a warm free list neither does one whole refused
// arrival: draw, MaxAttempts refusals with their backoffs, give-up, OnDone,
// record recycled. Only an admitted transaction is built, and Build
// allocates what it needs. It holds Aggregate.arrive and classOf,
// arrival.resolved, attempt.submit, onDone and resubmit, Generator.Draw with
// every class's drawer (newOrder, payment, orderStatus, delivery, stockLevel)
// and seal, and the server's refusal, db.Server.refuse and classOf.
func TestAggregateDrawPathZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.SetBackpressure(true)
	a := boundAgg(k, server, RetryPolicy{MaxAttempts: 4})
	if n := testing.AllocsPerRun(1000, func() {
		_ = a.rng.Poisson(370)
		_ = a.rng.Binomial(100000, 0.001)
		_ = a.classOf()
		_ = a.HomeWH(a.rng.Intn(a.Population))
	}); n != 0 {
		t.Fatalf("draw path allocates %v times per window", n)
	}
	var done int64
	a.OnDone = func(*db.Txn, db.Outcome) { done++ }
	cycle := func() {
		a.arrive()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // every class seen, every slice at its size
		cycle()
	}
	if a.free.Len() != 1 {
		t.Fatalf("free list holds %d records after serial refused cycles, want the one reused", a.free.Len())
	}
	if n := testing.AllocsPerRun(2000, cycle); n != 0 {
		t.Fatalf("a refused arrival allocates %v times", n)
	}
	if done != a.Issued() || a.GiveUps() != a.Issued() || a.Retries() != 3*a.Issued() {
		t.Fatalf("issued %d: done %d, give-ups %d, retries %d", a.Issued(), done, a.GiveUps(), a.Retries())
	}
	if n := a.free.Out(); n != 0 {
		t.Fatalf("%d arrival records lent after every arrival resolved", n)
	}
}

// TestAggregateTickAllocFree pins the window event past warmup: against a
// server that refuses every arrival for good, a whole window — Aggregate.tick
// with its Poisson draw, every arrival drawn, refused and recycled, and the
// next window scheduled — allocates nothing.
func TestAggregateTickAllocFree(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.SetBackpressure(true)
	a := newAggUnderTest(k, server, 100000, RetryPolicy{})
	a.Start(k, sim.NewRNG(47).Fork("agg"))
	if err := k.RunUntil(a.Proc.Think + a.Window); err != nil {
		t.Fatal(err)
	}
	before := a.Issued()
	window := func() {
		if err := k.RunUntil(k.Now() + a.Window); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, window); n != 0 {
		t.Fatalf("a warm window: %v allocs/op, want 0", n)
	}
	if a.unfired != 0 || a.Issued()-before < 101*10 {
		t.Fatalf("%d unfired, %d arrivals in 101 windows: the pin did not cover the steady pool", a.unfired, a.Issued()-before)
	}
	if a.free.Len() != 1 || a.free.Out() != 0 {
		t.Fatalf("free list: %d waiting, %d lent; want the one record every arrival reuses", a.free.Len(), a.free.Out())
	}
}

// TestAggregateFreeListDrains: once every arrival has its final outcome, no
// record is lent — each went back on the list, or was left to the collector
// if a server still held its transaction.
func TestAggregateFreeListDrains(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.MaxActive = 2
	a := boundAgg(k, server, RetryPolicy{})
	outcomes := map[db.Outcome]int{}
	a.OnDone = func(_ *db.Txn, o db.Outcome) { outcomes[o]++ }
	for range 20 {
		for range 6 { // more than MaxActive at once: some are refused
			a.arrive()
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if outcomes[db.Rejected] == 0 || outcomes[db.Committed] == 0 {
		t.Fatalf("outcomes %v: the run does not cover both fates", outcomes)
	}
	if n := a.free.Out(); n != 0 {
		t.Fatalf("%d arrival records lent after every arrival resolved (outcomes %v)", n, outcomes)
	}
}

// arrivalClassOf maps a transaction class back to the top-level class it was
// drawn as.
func arrivalClassOf(class string) ArrivalClass {
	switch class {
	case ClassNewOrder:
		return ArrivalNewOrder
	case ClassPaymentLong, ClassPaymentShort:
		return ArrivalPayment
	case ClassOrderStatusLong, ClassOrderStatusShort:
		return ArrivalOrderStatus
	case ClassDelivery:
		return ArrivalDelivery
	}
	return ArrivalStockLevel
}

// TestAggregateLazyBuildMatchesEagerTwin pins what deferring the build must
// not change: a transaction refused k times and admitted on attempt k+1
// executes with exactly the TID, keys and costs drawn at its arrival, though
// other arrivals were drawn from the same generator in between. The
// reference is an eager twin generator on the same seed, fed the same
// (class, warehouse) sequence.
func TestAggregateLazyBuildMatchesEagerTwin(t *testing.T) {
	const pop = 600
	k := sim.NewKernel()
	server := newAggServer(k)
	server.MaxActive = 1
	// Backoff windows that cannot overlap — retry n waits [10,20]·2^(n-1) ms —
	// so the time from arrival to the admitted submission tells the attempt.
	retry := RetryPolicy{MaxAttempts: 4, BaseBackoff: 20 * sim.Millisecond, MaxBackoff: sim.Second}
	a := newAggUnderTest(k, server, pop, retry)
	type arrived struct {
		at    sim.Time
		wh    int
		class string
		txn   *db.Txn // a copy of it as admitted, nil unless admitted
	}
	var log []arrived // in draw order, which is TID order
	a.HomeWH = func(i int) int {
		wh := i / ClientsPerWarehouse
		log = append(log, arrived{at: k.Now(), wh: wh})
		return wh
	}
	a.OnDone = func(txn *db.Txn, o db.Outcome) {
		e := &log[uint32(txn.TID)-1] // the TID's low half counts the site's draws
		e.class = txn.Class
		if txn.Quantum != 0 {
			// Admitted. The record is reused once the server lets go of it,
			// so keep a copy that owns its sets.
			cp := *txn
			cp.ReadSet, cp.WriteSet = slices.Clone(txn.ReadSet), slices.Clone(txn.WriteSet)
			e.txn = &cp
		}
	}
	budget := 1500
	a.Stop = func() bool { budget--; return budget < 0 }
	a.Start(k, sim.NewRNG(29).Fork("agg"))
	if err := k.RunUntil(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}

	twin := NewGenerator(1, Warehouses(pop), DefaultCalibration(), sim.NewRNG(7).Fork("gen"))
	var draft Draft
	var admittedAfter [4]int // by number of refusals before admission
	for i, e := range log {
		if e.class == "" {
			t.Fatalf("arrival %d never resolved", i)
		}
		twin.Draw(&draft, arrivalClassOf(e.class), e.wh)
		want := new(db.Txn)
		twin.Build(&draft, want)
		got := e.txn
		if got == nil {
			continue
		}
		wait := got.SubmitAt - e.at
		refusals := 0
		for d := 10 * sim.Millisecond; wait >= d; d *= 2 {
			wait -= d
			refusals++
		}
		admittedAfter[refusals]++
		if got.TID != want.TID || got.Class != want.Class || got.ReadOnly != want.ReadOnly ||
			got.UserAbort != want.UserAbort || got.WriteBytes != want.WriteBytes || got.CommitCPU != want.CommitCPU ||
			got.Fetches != want.Fetches || got.CPU != want.CPU || got.Quantum != want.Quantum || !slices.Equal(got.ReadSet, want.ReadSet) || !slices.Equal(got.WriteSet, want.WriteSet) {
			t.Fatalf("arrival %d (%s), admitted after %d refusals, differs from its eager twin:\n got %+v\nwant %+v",
				i, e.class, refusals, got, want)
		}
	}
	for refusals, n := range admittedAfter {
		if n == 0 {
			t.Fatalf("no transaction was admitted after exactly %d refusals (%v): the run does not cover the case", refusals, admittedAfter)
		}
	}
}

// TestAggregateCrashWakesParkedArrivalsOnce crashes the server with the
// arrival stream running, so arrivals and retries park in the dead site's
// blocked-submit list, then restarts it: every parked arrival is woken with
// AbortCrash exactly once, no record reaches the free list twice, and every
// emulated user is in exactly one pool at every tick of the run.
func TestAggregateCrashWakesParkedArrivalsOnce(t *testing.T) {
	const pop = 600
	k := sim.NewKernel()
	server := newAggServer(k)
	server.MaxActive = 2
	a := newAggUnderTest(k, server, pop, RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * sim.Millisecond, MaxBackoff: 200 * sim.Millisecond})
	outcomes := map[uint64]db.Outcome{}
	crashed := 0
	a.OnDone = func(txn *db.Txn, o db.Outcome) {
		if prev, dup := outcomes[txn.TID]; dup {
			t.Fatalf("TID %x resolved twice: %v then %v", txn.TID, prev, o)
		}
		outcomes[txn.TID] = o
		if o == db.AbortCrash {
			crashed++
		}
	}
	a.Start(k, sim.NewRNG(37).Fork("agg"))
	var issuedAtCrash, issuedAtRestart int64
	k.Schedule(2*sim.Second, func() { issuedAtCrash = a.Issued(); server.Crash() })
	k.Schedule(3*sim.Second, func() { issuedAtRestart = a.Issued(); server.Restart() })
	for tick := sim.Time(0); tick < 12*sim.Second; tick += a.Window {
		if err := k.RunUntil(tick); err != nil {
			t.Fatal(err)
		}
		inFlight := a.Issued() - int64(len(outcomes))
		if got := int64(a.unfired+a.thinking) + inFlight; got != pop {
			t.Fatalf("t=%v: unfired %d + thinking %d + in flight %d = %d, want %d", tick, a.unfired, a.thinking, inFlight, got, pop)
		}
		seen := map[*arrival]bool{}
		for r := range a.free.All() {
			if seen[r] {
				t.Fatalf("t=%v: a record is on the free list twice", tick)
			}
			seen[r] = true
		}
	}
	if issuedAtRestart == issuedAtCrash {
		t.Fatal("no arrival fell into the down window: the run does not cover the case")
	}
	// The generator serves this aggregate alone, so the n-th arrival carries
	// the n-th TID of site 1.
	for n := issuedAtCrash + 1; n <= issuedAtRestart; n++ {
		if o := outcomes[dbsm.MakeTID(1, uint32(n))]; o != db.AbortCrash {
			t.Fatalf("arrival %d parked while the site was down resolved %v, want abort-crash", n, o)
		}
	}
	if parked := int(issuedAtRestart - issuedAtCrash); crashed <= parked {
		t.Fatalf("%d AbortCrash outcomes for %d parked arrivals: none for the transactions and retries in flight at the crash", crashed, parked)
	}
}

// TestAggregateRejectPendingRetriesBuiltTxn covers the one rejection that
// comes after admission: the replication stack refuses the termination
// multicast and the replica hands the transaction back through
// RejectPending. The retry resubmits the same *db.Txn, already built — the
// hook is spent — and once it commits and the server lets go of it, its
// record goes back on the free list and the next arrival is drawn into it.
func TestAggregateRejectPendingRetriesBuiltTxn(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	a := boundAgg(k, server, RetryPolicy{MaxAttempts: 3})
	var seen []*db.Txn
	var sets []*dbsm.TupleID // where each submission's read-set is stored
	server.SetTerminator(func(txn *db.Txn) {
		if txn.Build != nil {
			t.Fatal("build hook still set on a transaction in termination")
		}
		seen = append(seen, txn)
		sets = append(sets, &txn.ReadSet[0])
		if len(seen) == 1 {
			server.RejectPending(txn.TID)
			return
		}
		server.ResolveLocal(txn.TID, true, 1)
	})
	var final []db.Outcome
	a.OnDone = func(_ *db.Txn, o db.Outcome) { final = append(final, o) }
	// Arrivals until one is an update that reaches termination; each runs to
	// its outcome before the next is drawn.
	for len(seen) == 0 {
		final = final[:0]
		a.arrive()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 || seen[0] != seen[1] {
		t.Fatalf("termination saw %d submissions of %d distinct transactions, want the same one twice", len(seen), len(seen))
	}
	if sets[0] != sets[1] {
		t.Fatal("the retried transaction was built a second time")
	}
	if len(final) != 1 || final[0] != db.Committed {
		t.Fatalf("final outcomes %v, want one commit", final)
	}
	if a.Retries() != 1 || a.RetryLat().N() != 1 {
		t.Fatalf("retries %d, retry latencies %d, want 1 and 1", a.Retries(), a.RetryLat().N())
	}
	if seen[0].Held() {
		t.Fatal("the server still holds the committed transaction")
	}
	// The next arrival reuses the admitted one's record, a fresh
	// transaction in the same memory.
	committed := seen[0].TID
	server.SetBackpressure(true)
	a.arrive()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a.free.Len() != 1 {
		t.Fatalf("free list %d long after one refused arrival", a.free.Len())
	}
	for r := range a.free.All() {
		if &r.txn != seen[0] || r.txn.TID == committed || r.txn.Build == nil {
			t.Fatalf("free list holds another record, or the reused one still carries TID %x", committed)
		}
	}
}

// TestAggregateFreeListDroppedAtStop pins the other half of the record
// lifetime: when Stop ends the arrival stream the free list is released, and
// the refusals still resolving afterwards do not refill it, so a finished
// model a caller keeps alive holds no idle records.
func TestAggregateFreeListDroppedAtStop(t *testing.T) {
	k := sim.NewKernel()
	server := newAggServer(k)
	server.MaxActive = 1
	a := newAggUnderTest(k, server, 600, RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * sim.Millisecond, MaxBackoff: 200 * sim.Millisecond})
	budget, peak, afterStop := 800, 0, 0
	a.Stop = func() bool {
		peak = max(peak, a.free.Len())
		budget--
		return budget < 0
	}
	a.OnDone = func(*db.Txn, db.Outcome) {
		if a.stopped {
			afterStop++
			if a.free.Len() != 0 {
				t.Fatalf("free list refilled after Stop: %d records", a.free.Len())
			}
		}
	}
	a.Start(k, sim.NewRNG(41).Fork("agg"))
	if err := k.RunUntil(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatal("free list never held a record while the stream ran")
	}
	if afterStop == 0 {
		t.Fatal("no transaction resolved after Stop: the run does not cover the case")
	}
	if a.free.Len() != 0 {
		t.Fatalf("free list holds %d records after Stop", a.free.Len())
	}
}
