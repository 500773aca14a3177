package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// The kernel's dispatch order is proven against a reference: every pending
// event kept in a plain list, the next dispatch being its minimum by (at,
// priority, insertion sequence). An orderScript reads a byte string as a
// stream of schedule, cancel, reschedule, Step, RunUntil, Stop and Run
// operations, and Reserve followed later by ScheduleReserved, by
// SettleReserved or by Unreserve — handlers schedule and cancel too — with
// delays drawn from every region of the queue: before the horizon (the
// bucket already spilled), level 0, level 1, beyond level 1, and exactly on
// or one nanosecond before a tick, span or horizon boundary. Every dispatch must be
// the reference minimum, at its time, and Pending() must equal the
// reference count, open reservations included, after every operation and
// inside every handler, and Events the reference's dispatches plus its
// settled reservations. A reserved event is a reference event at the
// sequence of its Reserve, as if scheduled then.

type refEvent struct {
	at    Time
	pri   Priority
	seq   int64
	id    EventID
	tag   int
	child byte // what the handler does when it fires
}

type orderScript struct {
	t    testing.TB
	k    *Kernel
	in   []byte
	pos  int
	seq  int64
	tags int
	pend []refEvent
	gone []EventID // IDs already dispatched or cancelled
	// open holds the sequences reserved and not yet resolved; fired counts
	// dispatches and settled the reservations settled without one.
	open           []int64
	fired, settled int64
	// stopAt is the tag whose handler calls Stop, or -1; stopped records
	// that it did.
	stopAt  int
	stopped bool
}

func (sc *orderScript) next() byte {
	if sc.pos >= len(sc.in) {
		return 0
	}
	b := sc.in[sc.pos]
	sc.pos++
	return b
}

func (sc *orderScript) done() bool { return sc.pos >= len(sc.in) }

func (sc *orderScript) fail(format string, args ...any) {
	sc.t.Helper()
	sc.t.Fatalf("script byte %d, now %v, horizon %v: %s", sc.pos, sc.k.now, sc.k.horizon, fmt.Sprintf(format, args...))
}

// delay picks a delay from one of the queue's regions, relative to the
// kernel's current time and horizon.
func (sc *orderScript) delay() Time {
	sel, x := sc.next(), Time(sc.next())<<8|Time(sc.next())
	now, h := sc.k.now, sc.k.horizon
	tick := func(j Time) Time { return (now>>tickShift+j)<<tickShift - now }
	span := func(j Time) Time { return (now>>spanShift+j)<<spanShift - now }
	spans := [...]Time{1, 2, 3, l1Len - 2, l1Len - 1, l1Len, l1Len + 1}
	switch sel % 14 {
	case 0:
		return 0
	case 1:
		return x % 1000
	case 2: // before the horizon: into the bucket already spilled
		if h > now {
			return (h - now - 1) * x / (1 << 16)
		}
		return 0
	case 3: // exactly on the horizon, and one ns before it
		return max(h-now, 0)
	case 4:
		return max(h-now-1, 0)
	case 5: // exactly on a tick boundary, and one ns before one
		return tick(1 + x%8)
	case 6:
		return tick(1+x%8) - 1
	case 7: // exactly on a span (level-1 slot) boundary, and one ns before one
		return span(spans[x%Time(len(spans))])
	case 8:
		return span(spans[x%Time(len(spans))]) - 1
	case 9: // level 0 of the current span, or the next
		return x * (65 * Microsecond)
	case 10: // level 1
		return x * (67 * Millisecond)
	case 11: // beyond level 1
		return l1Len<<spanShift + x*Second
	case 12: // a few ticks
		return x * 50 * Microsecond / 256
	default: // the same instant as a pending event: ties on at
		if len(sc.pend) > 0 {
			return sc.pend[int(x)%len(sc.pend)].at - now
		}
		return x
	}
}

func (sc *orderScript) schedule(child byte) {
	d := sc.delay()
	pri := [...]Priority{PriorityHigh, PriorityNormal, PriorityLow}[sc.next()%3]
	sc.scheduleWith(d, pri, child)
}

// scheduleWith schedules an event after d at pri, in the kernel and the
// reference.
func (sc *orderScript) scheduleWith(d Time, pri Priority, child byte) {
	tag := sc.tags
	sc.tags++
	sc.seq++
	ev := refEvent{at: sc.k.now + d, pri: pri, seq: sc.seq, tag: tag, child: child}
	ev.id = sc.k.SchedulePri(d, pri, func() { sc.fire(tag) })
	sc.pend = append(sc.pend, ev)
}

// reserve takes a sequence number with Reserve, lets up to two schedules
// come after it, and only then files the event at the reserved number; the
// reference files it at that number, where a Schedule at the Reserve would
// have.
func (sc *orderScript) reserve() {
	seq := sc.k.Reserve()
	sc.seq++
	if seq != sc.seq {
		sc.fail("Reserve = %d, want %d", seq, sc.seq)
	}
	d := sc.delay()
	pri := [...]Priority{PriorityHigh, PriorityNormal, PriorityLow}[sc.next()%3]
	child := sc.next()
	for i := sc.next() % 3; i > 0; i-- {
		sc.schedule(sc.next() / 2)
	}
	tag := sc.tags
	sc.tags++
	ev := refEvent{at: sc.k.now + d, pri: pri, seq: seq, tag: tag, child: child}
	ev.id = sc.k.ScheduleReserved(ev.at, pri, seq, func() { sc.fire(tag) })
	sc.pend = append(sc.pend, ev)
}

// cancel cancels the pending event the next byte picks, or — one time in
// four — an ID that is already spent, which must report false.
func (sc *orderScript) cancel() (ok bool) {
	b := sc.next()
	if len(sc.pend) == 0 || (b%4 == 3 && len(sc.gone) > 0) {
		if len(sc.gone) > 0 && sc.k.Cancel(sc.gone[int(b)%len(sc.gone)]) {
			sc.fail("Cancel of a spent ID reported true")
		}
		return false
	}
	e := sc.pend[int(b)%len(sc.pend)]
	if !sc.k.Cancel(e.id) {
		sc.fail("Cancel of pending tag %d reported false", e.tag)
	}
	sc.gone = append(sc.gone, e.id)
	sc.pend = slices.DeleteFunc(sc.pend, func(p refEvent) bool { return p.id == e.id })
	return true
}

// min is the reference: the index of the pending event due first.
func (sc *orderScript) min() int {
	best := 0
	for i, e := range sc.pend {
		b := sc.pend[best]
		if e.at < b.at || e.at == b.at && (e.pri < b.pri || e.pri == b.pri && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

// fire is every scheduled handler: check it is the reference minimum, then
// act out its child byte — schedule, cancel, reschedule or Stop.
func (sc *orderScript) fire(tag int) {
	if len(sc.pend) == 0 {
		sc.fail("tag %d dispatched with nothing pending in the reference", tag)
	}
	i := sc.min()
	want := sc.pend[i]
	if want.tag != tag || sc.k.Now() != want.at {
		sc.fail("dispatched tag %d at %v, want tag %d at %v", tag, sc.k.Now(), want.tag, want.at)
	}
	sc.pend = append(sc.pend[:i], sc.pend[i+1:]...)
	sc.gone = append(sc.gone, want.id)
	sc.fired++
	sc.checkPending()
	if tag == sc.stopAt {
		sc.k.Stop()
		sc.stopped = true
		return
	}
	if sc.done() { // the final Run drains without growing the queue
		return
	}
	switch want.child % 6 {
	case 0, 1:
		sc.schedule(sc.next() / 2) // a chain continues one time in two
	case 2:
		sc.cancel()
	case 3:
		if sc.cancel() {
			sc.schedule(0)
		}
	}
	sc.checkPending()
}

func (sc *orderScript) checkPending() {
	sc.t.Helper()
	if got := sc.k.Pending(); got != len(sc.pend)+len(sc.open) {
		sc.fail("Pending() = %d, reference holds %d and %d open reservations", got, len(sc.pend), len(sc.open))
	}
	if sc.k.Executed() != sc.fired || sc.k.Events() != sc.fired+sc.settled {
		sc.fail("Executed() = %d, Events() = %d, reference fired %d and settled %d",
			sc.k.Executed(), sc.k.Events(), sc.fired, sc.settled)
	}
}

// hold takes a sequence with Reserve and keeps it open, or resolves the open
// reservation the next byte picks without an event: settled as a completion
// at the current instant, or given up. Either way the clock stays put.
func (sc *orderScript) hold() {
	b := sc.next()
	if b%3 == 0 || len(sc.open) == 0 {
		sc.seq++
		if seq := sc.k.Reserve(); seq != sc.seq {
			sc.fail("Reserve = %d, want %d", seq, sc.seq)
		}
		sc.open = append(sc.open, sc.seq)
		return
	}
	i := int(b/3) % len(sc.open)
	sc.resolve(i, b%3 == 1)
}

// resolve settles open reservation i at the current instant, or gives it up.
func (sc *orderScript) resolve(i int, settle bool) {
	now := sc.k.Now()
	if settle {
		sc.k.SettleReserved(sc.open[i], now)
		sc.settled++
	} else {
		sc.k.Unreserve(sc.open[i])
	}
	sc.open = slices.Delete(sc.open, i, i+1)
	if sc.k.Now() != now {
		sc.fail("resolving a reservation moved the clock from %v to %v", now, sc.k.Now())
	}
}

// runOrderScript interprets in against k, an empty kernel, and fails t on
// the first dispatch the reference disagrees with.
func runOrderScript(t testing.TB, k *Kernel, in []byte) {
	sc := &orderScript{t: t, k: k, in: in, stopAt: -1}
	for !sc.done() {
		switch op := sc.next(); op % 12 {
		case 0, 1, 2, 3:
			sc.schedule(sc.next())
		case 4:
			sc.cancel()
		case 5: // reschedule: a timer reset reuses the vacated slot
			if sc.cancel() {
				sc.schedule(sc.next())
			}
		case 6, 7:
			before := len(sc.pend)
			stepped := sc.k.Step()
			if stepped != (before > 0) {
				sc.fail("Step() = %v with %d pending", stepped, before)
			}
		case 8: // RunUntil a limit anywhere, possibly inside an unspilled bucket
			limit := sc.k.now + sc.delay()
			if err := sc.k.RunUntil(limit); err != nil {
				sc.fail("RunUntil: %v", err)
			}
			if len(sc.pend) > 0 && sc.pend[sc.min()].at <= limit {
				sc.fail("RunUntil(%v) left tag %d due at %v", limit, sc.pend[sc.min()].tag, sc.pend[sc.min()].at)
			}
		case 9: // Stop from a handler, possibly mid-bucket
			sc.stopAt, sc.stopped = sc.tags, false
			sc.schedule(0)
			err := sc.k.Run()
			// A handler may have cancelled the stopper: Run then drains.
			if sc.stopped && !errors.Is(err, ErrHalted) || !sc.stopped && (err != nil || len(sc.pend) > 0) {
				sc.fail("Run with a stopper = %v (stopped %v, %d pending)", err, sc.stopped, len(sc.pend))
			}
			sc.stopAt = -1
		case 10:
			sc.reserve()
		case 11:
			sc.hold()
		}
		sc.checkPending()
	}
	for len(sc.open) > 0 { // settle and give up the rest in turn
		sc.resolve(0, len(sc.open)%2 == 0)
		sc.checkPending()
	}
	if err := sc.k.Run(); err != nil {
		sc.fail("final Run: %v", err)
	}
	if len(sc.pend) != 0 || sc.k.Pending() != 0 || sc.k.wheeled != 0 {
		sc.fail("after Run: reference %d, Pending %d, calendar %d", len(sc.pend), sc.k.Pending(), sc.k.wheeled)
	}
}

// orderSeeds start the fuzzer (and run in tier-1 as the seed corpus): one
// script per delay region, a boundary mix, and cancel/reschedule/stop mixes.
func orderSeeds() [][]byte {
	var seeds [][]byte
	for sel := byte(0); sel < 14; sel++ {
		var s []byte
		for i := byte(0); i < 24; i++ {
			// schedule (op 0) with child byte i, delay region sel, spread i*37, pri i
			s = append(s, 0, i, sel, i*37, i*11, i)
			if i%3 == 2 {
				s = append(s, 6) // Step
			}
		}
		seeds = append(seeds, s)
	}
	seeds = append(seeds,
		// far timer then RunUntil into its bucket's tick, then more
		[]byte{0, 8, 10, 0, 3, 1, 0, 8, 5, 1, 0, 1, 8, 5, 0, 0, 0, 8, 9, 0, 200, 6, 6},
		// cancel and reschedule wheel-resident timers
		[]byte{0, 0, 9, 1, 1, 1, 0, 0, 10, 2, 2, 2, 4, 0, 5, 0, 0, 10, 0, 1, 1, 6, 0, 0, 11, 0, 1, 1, 4, 0, 6},
		// stop mid-bucket with ties at the same instant, twice
		[]byte{0, 0, 9, 0, 40, 1, 0, 0, 13, 0, 0, 2, 0, 0, 13, 0, 0, 0, 9, 13, 0, 1, 1, 6, 6, 9, 9, 0, 10, 0},
		// ties at one instant at each priority, then Steps
		[]byte{0, 0, 9, 1, 1, 1, 0, 0, 13, 0, 0, 0, 0, 0, 13, 0, 0, 2, 0, 0, 13, 0, 0, 1, 6, 6, 6, 6},
		// Cancel of a spent ID refused, a pending one cancelled, its slot reused
		[]byte{0, 0, 9, 1, 1, 1, 0, 0, 9, 2, 2, 1, 6, 4, 3, 4, 0, 0, 0, 9, 3, 3, 1, 6, 6},
		// handlers chain PriorityHigh events at delay 0 behind a tie at their instant
		[]byte{0, 0, 9, 1, 1, 1, 0, 0, 13, 0, 0, 1, 6, 0, 0, 0, 0, 0, 6, 6, 0, 0, 0, 0, 6, 0, 6, 6},
		// Stop from a handler at delay 0 with a tie behind it, then Run on
		[]byte{0, 0, 13, 0, 0, 1, 9, 0, 0, 0, 1, 0, 0, 13, 0, 0, 1, 6},
		// cancel from a tie's handler
		[]byte{0, 2, 13, 0, 0, 1, 0, 2, 13, 0, 0, 1, 0, 0, 13, 0, 0, 1, 6, 1, 6, 6, 6},
		// RunUntil into a level-1 bucket, then a reserve there with a tie filed after it
		[]byte{0, 0, 10, 1, 1, 1, 8, 9, 0, 100, 10, 10, 0, 1, 0, 0, 1, 0, 10, 0, 1, 2, 6, 6, 6, 6},
		// reserve at a pending event's instant and two ties scheduled before
		// the reserved one is filed, then Steps
		[]byte{0, 0, 9, 1, 1, 1, 10, 13, 0, 0, 1, 0, 2, 0, 13, 0, 0, 1, 0, 13, 0, 0, 1, 6, 6, 6, 6},
		// two reservations held open across schedules and Steps: the first
		// settled, the second given up, then a third held to the end
		[]byte{11, 0, 0, 4, 9, 1, 1, 1, 11, 0, 6, 11, 1, 0, 4, 9, 2, 2, 1, 6, 11, 2, 11, 0, 6},
	)
	return seeds
}

func FuzzKernelOrder(f *testing.F) {
	for _, s := range orderSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		runOrderScript(t, NewKernel(), in)
	})
}

// randomScript is a random order script long enough to cross spans and
// level-1 slots many times.
func randomScript(seed int64) []byte {
	rng := NewRNG(seed)
	in := make([]byte, 6000)
	for i := range in {
		in[i] = byte(rng.Intn(256))
	}
	return in
}

// TestKernelOrderRandomized is the differential test at scale.
func TestKernelOrderRandomized(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		in := randomScript(seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runOrderScript(t, NewKernel(), in) })
	}
}

// TestKernelRunUntilInsideUnspilledBucket stops at a limit between two
// events of one level-0 bucket, then runs on.
func TestKernelRunUntilInsideUnspilledBucket(t *testing.T) {
	k := NewKernel()
	var got []int
	base := 40 << tickShift // one tick boundary, 40 ticks ahead
	k.ScheduleAt(Time(base)+5, func() { got = append(got, 1) })
	k.ScheduleAt(Time(base)+900*Microsecond, func() { got = append(got, 2) })
	k.ScheduleAt(Time(base)+900*Microsecond, func() { got = append(got, 3) })
	if k.wheeled != 3 {
		t.Fatalf("calendar holds %d events, want 3", k.wheeled)
	}
	if err := k.RunUntil(Time(base) + 100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || k.Pending() != 2 || k.Now() != Time(base)+5 {
		t.Fatalf("after RunUntil: got %v, pending %d, now %v", got, k.Pending(), k.Now())
	}
	// From outside a run, into the bucket that has already spilled.
	k.ScheduleAt(Time(base)+200, func() { got = append(got, 4) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 4 2 3]" {
		t.Fatalf("order %v, want [1 4 2 3]", got)
	}
}

// TestKernelCancelWheelResidentReusesSlot cancels an event waiting in each
// calendar level and beyond it, reuses the freed slot at once, and requires
// the stale nodes to be dropped when their buckets spill.
func TestKernelCancelWheelResidentReusesSlot(t *testing.T) {
	for _, d := range []Time{100 * Millisecond, 10 * Second, Hour, 3 * Hour} {
		k := NewKernel()
		ran := false
		id := k.Schedule(d, func() { t.Errorf("cancelled %v timer ran", d) })
		if !k.Cancel(id) {
			t.Fatalf("%v: Cancel = false", d)
		}
		id2 := k.Schedule(d, func() { ran = true })
		if uint32(id2>>32) != uint32(id>>32) || id2 == id {
			t.Fatalf("%v: slot not reused with a new generation: %x then %x", d, id, id2)
		}
		if k.Cancel(id) {
			t.Fatalf("%v: stale ID cancelled the slot's new event", d)
		}
		// A cancelled node later in the same bucket is dropped when the
		// bucket spills; it never reaches the heap.
		k.Cancel(k.Schedule(d+Microsecond, func() { t.Errorf("cancelled %v timer ran", d) }))
		if !k.Step() || !ran || k.Executed() != 1 || k.Now() != d {
			t.Fatalf("%v: ran %v executed %d now %v", d, ran, k.Executed(), k.Now())
		}
		if d < Hour*2 && (k.wheeled != 0 || len(k.events) != 0) {
			t.Fatalf("%v: %d calendar nodes and %d heap nodes left", d, k.wheeled, len(k.events))
		}
		if k.Step() || k.Pending() != 0 {
			t.Fatalf("%v: a cancelled event is still pending", d)
		}
	}
}

// TestKernelHeapTieAtHorizon: an event filed in the heap because it was
// beyond level 1 becomes due exactly at the horizon while a calendar bucket
// holds a higher-priority event at the same instant. The bucket must spill
// before the heap minimum dispatches — "before the horizon" is strict.
func TestKernelHeapTieAtHorizon(t *testing.T) {
	k := NewKernel()
	at := Time(l1Len+2) << spanShift // a span boundary, so a tick boundary
	var got []string
	k.SchedulePriAt(at, PriorityLow, func() { got = append(got, "far") })
	if k.wheeled != 0 {
		t.Fatal("a timer beyond level 1 went into the calendar")
	}
	// Walk the horizon forward with level-1 hops; the last files the tie
	// and an event one ns before it into the calendar.
	for i := Time(1); i <= 4; i++ {
		k.ScheduleAt(i*1000*Second, func() {
			got = append(got, "hop")
			if i == 4 {
				k.SchedulePriAt(at, PriorityHigh, func() { got = append(got, "near") })
				k.ScheduleAt(at-1, func() { got = append(got, "edge") })
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[hop hop hop hop edge near far]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}
