package csrt

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refCPU is the CPU with one kernel event per job and per slice, kept as the
// reference FuzzCPUSlices holds CPU to: a transaction's processing goes to it
// one slice at a time, each slice a job whose completion is an event, and
// every real job's completion is an event too. It is one CPU alone in its
// set, with the set's slowdown.
type refCPU struct {
	k         *sim.Kernel
	exec      runReal
	busyNS    [2]int64
	realQ     []*refJob
	simQ      []*refJob
	busy      bool
	cur       *refJob
	curStart  sim.Time
	curEnd    sim.Time
	curEvt    sim.EventID
	stopped   bool
	simFactor float64
}

type refJob struct {
	dur, remaining sim.Time
	fn, done       func()
}

func (c *refCPU) submitSim(dur sim.Time, done func()) {
	if c.simFactor > 1 {
		dur = sim.Time(float64(dur) * c.simFactor)
	}
	c.submit(&refJob{dur: dur, done: done})
}

func (c *refCPU) submit(j *refJob) {
	if c.stopped {
		return
	}
	if j.fn != nil {
		c.realQ = append(c.realQ, j)
		if c.busy && c.cur.fn == nil {
			now := c.k.Now()
			c.busyNS[ClassSim] += int64(now - c.curStart)
			c.cur.remaining = c.curEnd - now
			c.k.Cancel(c.curEvt)
			c.simQ = append([]*refJob{c.cur}, c.simQ...)
			c.busy, c.cur = false, nil
		}
	} else {
		j.remaining = j.dur
		c.simQ = append(c.simQ, j)
	}
	if !c.busy {
		c.dispatch()
	}
}

func (c *refCPU) dispatch() {
	if c.busy || c.stopped {
		return
	}
	var j *refJob
	switch {
	case len(c.realQ) > 0:
		j, c.realQ = c.realQ[0], c.realQ[1:]
	case len(c.simQ) > 0:
		j, c.simQ = c.simQ[0], c.simQ[1:]
	default:
		return
	}
	c.busy, c.cur = true, j
	dur := j.remaining
	if j.fn != nil {
		dur = c.exec(j.fn)
	}
	dur = max(dur, 0)
	c.curStart = c.k.Now()
	c.curEnd = c.curStart + dur
	c.curEvt = c.k.SchedulePri(dur, sim.PriorityHigh, c.complete)
}

func (c *refCPU) complete() {
	j := c.cur
	class := ClassSim
	if j.fn != nil {
		class = ClassReal
	}
	c.busyNS[class] += int64(c.k.Now() - c.curStart)
	c.busy, c.cur = false, nil
	if j.done != nil && !c.stopped {
		j.done()
	}
	c.dispatch()
}

func (c *refCPU) stop() {
	c.stopped = true
	c.realQ, c.simQ = nil, nil
	if c.busy {
		c.k.Cancel(c.curEvt)
	}
	c.busy, c.cur = false, nil
}

// sliceWorld is one side of the differential: a kernel, a CPU, and the
// transactions and real jobs a script submits to it, with a log of every
// instant the CPU's work became visible — a real job's body running, a real
// job's Done, and a transaction ending or stopping after a cut.
type sliceWorld struct {
	k    *sim.Kernel
	cost sim.Time // what the running real job charges
	log  []string
	txns []*sliceTxn

	ref *refCPU // the reference world
	set *CPUSet // the world under test
}

// sliceTxn is db.Server.step in miniature: processing in slices of quantum
// (the reference submits them one by one, the CPU under test as one run),
// then an optional commit job, each end checking whether the transaction
// was cut meanwhile.
type sliceTxn struct {
	w          *sliceWorld
	id         int
	left       sim.Time
	quantum    sim.Time
	commit     sim.Time
	committing bool
	cut        bool
	runLeft    sim.Time // the run's processing left, for the CPU under test
	step       func()
}

func newSliceWorld(ref bool) *sliceWorld {
	w := &sliceWorld{k: sim.NewKernel()}
	exec := func(fn func()) sim.Time {
		w.cost = 0
		fn()
		return w.cost
	}
	if ref {
		w.ref = &refCPU{k: w.k, exec: exec}
	} else {
		w.set = NewCPUSet(1, w.k, exec)
	}
	return w
}

func (w *sliceWorld) note(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.k.Now())+fmt.Sprintf(format, args...))
}

func (x *sliceTxn) next() {
	w := x.w
	switch {
	case x.cut:
		w.note("txn %d cut", x.id)
	case w.ref != nil && x.left > 0:
		s := x.left
		if x.quantum > 0 && s > x.quantum {
			s = x.quantum
		}
		x.left -= s
		w.ref.submitSim(s, x.step)
	case w.set != nil && x.runLeft > 0:
		w.set.SubmitRun(&x.runLeft, x.quantum, x.step)
	case !x.committing && x.commit > 0:
		x.committing = true
		if w.ref != nil {
			w.ref.submitSim(x.commit, x.step)
		} else {
			w.set.SubmitSim(x.commit, x.step)
		}
	default:
		w.note("txn %d done", x.id)
	}
}

func (w *sliceWorld) submitTxn(dur, quantum, commit sim.Time) {
	x := &sliceTxn{w: w, id: len(w.txns), left: dur, runLeft: dur, quantum: quantum, commit: commit}
	x.step = x.next
	w.txns = append(w.txns, x)
	x.next()
}

func (w *sliceWorld) submitReal(id int, cost sim.Time, heard bool) {
	fn := func() {
		w.note("real %d runs", id)
		w.cost = cost
	}
	var done func()
	if heard {
		done = func() { w.note("real %d done", id) }
	}
	if w.ref != nil {
		w.ref.submit(&refJob{fn: fn, done: done})
	} else {
		w.set.SubmitReal(fn, done)
	}
}

func (w *sliceWorld) cut(i int) {
	if len(w.txns) == 0 {
		return
	}
	x := w.txns[i%len(w.txns)]
	x.cut = true
	if w.set != nil {
		w.set.Cut(&x.runLeft)
	}
}

func (w *sliceWorld) busy(class Class) int64 {
	if w.ref != nil {
		return w.ref.busyNS[class]
	}
	return w.set.BusyNS(class)
}

// sliceUnit is the grid the script's instants and durations sit on, a
// quarter of the 1 ms quantum, so submissions, cuts and ends fall on slice
// boundaries often; a flag byte moves an instant or a duration one ns off.
const sliceUnit = 250 * sim.Microsecond

// schedule reads in as a stream of four-byte operations — an advance of the
// clock, then a transaction, a real job with or without Done, a cut, Stop,
// Restart or a slowdown — and schedules each in w's kernel at its instant.
func (w *sliceWorld) schedule(in []byte) {
	var at sim.Time
	for i := 0; i+4 <= len(in); i += 4 {
		kind, adv, a, b := in[i], in[i+1], in[i+2], in[i+3]
		at += sim.Time(adv%8) * sliceUnit
		if adv&0x80 != 0 {
			at++
		}
		id := i / 4
		var op func()
		switch kind % 8 {
		case 0, 1:
			dur := sim.Time(1+a%16) * sliceUnit
			if a&0x80 != 0 {
				dur++
			}
			quantum := [...]sim.Time{0, sim.Millisecond, sim.Millisecond, 750 * sim.Microsecond}[b%4]
			commit := sim.Time(b>>2%4) * sliceUnit
			op = func() { w.submitTxn(dur, quantum, commit) }
		case 2, 3:
			cost := sim.Time(a%8) * sliceUnit / 2
			heard := kind%8 == 2
			op = func() { w.submitReal(id, cost, heard) }
		case 4:
			op = func() { w.cut(int(a)) }
		case 5:
			op = func() {
				if w.ref != nil {
					w.ref.stop()
				} else {
					w.set.Stop()
				}
			}
		case 6:
			op = func() {
				if w.ref != nil {
					w.ref.stopped = false
				} else {
					w.set.Restart()
				}
			}
		default:
			factor := [...]float64{1, 2, 1.5}[a%3]
			op = func() {
				if w.ref != nil {
					w.ref.simFactor = factor
				} else {
					w.set.SetSimSlowdown(factor)
				}
			}
		}
		w.k.ScheduleAt(at, op)
	}
}

// runSliceScript drives the script through the reference CPU and the CPU
// under test in steps of RunUntil, and fails t unless, after every step,
// both logged the same things at the same instants, spent the same busy
// time per class, and the two kernels agree: the reference's dispatches are
// the other's Events, on the same clock with the same work pending.
func runSliceScript(t testing.TB, in []byte) {
	if len(in) == 0 {
		return
	}
	ref, got := newSliceWorld(true), newSliceWorld(false)
	ref.schedule(in[1:])
	got.schedule(in[1:])
	step := sim.Time(1+in[0]%16) * 97 * sim.Microsecond
	if in[0]&0x80 != 0 {
		step = sim.Time(1+in[0]%8) * sliceUnit
	}
	for limit := step; ; limit += step {
		if err := ref.k.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if err := got.k.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		switch {
		case !slices.Equal(ref.log, got.log):
			t.Fatalf("by %v: the CPU logged\n%v\nthe reference\n%v", limit, got.log, ref.log)
		case ref.busy(ClassSim) != got.busy(ClassSim) || ref.busy(ClassReal) != got.busy(ClassReal):
			t.Fatalf("by %v: busy sim %d real %d, reference %d and %d", limit,
				got.busy(ClassSim), got.busy(ClassReal), ref.busy(ClassSim), ref.busy(ClassReal))
		case ref.k.Executed() != got.k.Events():
			t.Fatalf("by %v: reference dispatched %d, the CPU's kernel counts %d events in %d dispatches", limit,
				ref.k.Executed(), got.k.Events(), got.k.Executed())
		case ref.k.Now() != got.k.Now():
			t.Fatalf("by %v: reference clock %v, the CPU's %v", limit, ref.k.Now(), got.k.Now())
		case ref.k.Pending() != got.k.Pending():
			t.Fatalf("by %v: reference owes %d dispatches, the CPU's kernel %d", limit, ref.k.Pending(), got.k.Pending())
		}
		if ref.k.Pending() == 0 {
			return
		}
	}
}

// sliceSeeds are the edge cases, each a script for runSliceScript.
func sliceSeeds() [][]byte {
	return [][]byte{
		// a submission exactly at a boundary: a 3 ms run at 0, another at 1 ms
		{0x81, 0, 0, 11, 1, 0, 4, 7, 1},
		// a preemption straddling one: a real job from 0.75 ms to 1.25 ms,
		// then a transaction at 1.25 ms that waits for the shifted boundary
		{0x03, 0, 0, 11, 1, 2, 3, 4, 0, 0, 2, 3, 1},
		// an abort at a boundary: a run cut at 1 ms exactly, and one
		// submitted then and cut at 2 ms while it waits
		{0x81, 0, 0, 11, 1, 4, 4, 0, 0, 0, 0, 7, 1, 4, 4, 1, 0},
		// a real job submitted exactly at an unheard end: 0.5 ms of protocol
		// code without Done, then real jobs with and without Done at 0.5 ms
		{0x02, 3, 0, 4, 0, 2, 2, 2, 0, 3, 0, 1, 0, 0, 0, 3, 1},
		// Stop exactly at an unheard end, then a transaction submitted
		// before the next one's end, which files it at the reserved sequence
		{0x05, 3, 0, 4, 0, 5, 2, 0, 0, 6, 1, 0, 0, 3, 0, 4, 0, 0, 1, 7, 1},
		// a slowdown while a run waits behind a real job, then back to full speed
		{0x07, 0, 0, 15, 1, 3, 1, 6, 0, 7, 0, 1, 0, 0, 2, 9, 2, 7, 3, 0, 0},
	}
}

// FuzzCPUSlices holds CPU, with its runs and unheard ends, to refCPU, one
// event per slice and per job.
func FuzzCPUSlices(f *testing.F) {
	for _, s := range sliceSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		runSliceScript(t, in)
	})
}

// TestCPUSlicesRandomized is the differential at scale: long random scripts.
func TestCPUSlicesRandomized(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		in := make([]byte, 1+4*300)
		for i := range in {
			in[i] = byte(rng.Intn(256))
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSliceScript(t, in) })
	}
}
