package csrt

import (
	"fmt"

	"repro/internal/sim"
)

// Class is one of the two kinds of CPU work the paper's usage breakdown
// tells apart (Figures 6a and 7c). A job is real iff it has an Fn.
type Class uint8

const (
	ClassSim  Class = iota // simulated jobs: transaction processing
	ClassReal              // real jobs: protocol code under test
)

// Job is one unit of CPU demand.
//
// A simulated job carries a known duration Dur. A real job carries a
// function Fn whose cost is unknown beforehand: Fn is executed when the job
// is dispatched, its cost is the sum of what it charges, and the CPU stays
// busy for exactly that long (Section 2.2, Figure 1a). Done, if set, fires
// when the CPU completes the job. A simulated job may also be a run of
// slices (CPUSet.SubmitRun).
type Job struct {
	// Dur is the duration of a simulated job. Ignored when Fn is set.
	Dur sim.Time
	// Fn is the body of a real job. Its charged cost becomes the busy
	// period.
	Fn func()
	// Done fires when the CPU finishes the job.
	Done func()

	remaining sim.Time  // simulated: the part of Dur not yet run
	quantum   sim.Time  // a run's slice length (SubmitRun); 0: one slice
	left      *sim.Time // a run's owner's count of the processing it has left
	pooled    bool      // created by a CPUSet's Submit*: recycled on completion
	cut       bool      // simulated: end at the next slice boundary
}

func (j *Job) class() Class {
	if j.Fn != nil {
		return ClassReal
	}
	return ClassSim
}

// boundaryAfter reports the first slice boundary, or the end, strictly
// after c ns of the job have run.
func (j *Job) boundaryAfter(c sim.Time) sim.Time {
	if q := j.quantum; q > 0 {
		if b := (c/q + 1) * q; b < j.Dur {
			return b
		}
	}
	return j.Dur
}

// boundaries reports how many slice boundaries, the end not counted, lie in
// (a, b] ns of the job.
func (j *Job) boundaries(a, b sim.Time) int64 {
	q := j.quantum
	b = min(b, j.Dur-1)
	if q <= 0 || b <= a {
		return 0
	}
	return int64(b/q - a/q)
}

// runReal is installed by Runtime.Bind: it executes a real job body and
// returns the cost it charged.
type runReal func(fn func()) sim.Time

// CPU is one simulated processor: a busy flag plus queues of pending jobs
// (Section 2.2). Real jobs take priority over simulated jobs and preempt a
// running simulated job; the preempted job resumes afterwards with its
// remaining duration.
//
// A completion is a kernel event only when something depends on it. A run's
// slice boundary becomes one when another simulated job waits on the CPU,
// when the run is cut (CPUSet.Cut, SetSimSlowdown, a crash of the server
// that owns it), and otherwise the run takes one event, at its end; the boundaries are
// counted in the run's own CPU time, so a real job that preempts it moves
// them by the time it takes. A real job without Done that a CPU alone in its
// set dispatches with nothing queued has no event at all: it reserves the
// insertion sequence its completion would take (Kernel.Reserve) and is
// settled without one by whichever comes first — the next Submit at or after
// its end, Stop, or the kernel coming to rest past its end (Kernel.AtRest).
// A Submit before its end files the completion at the reserved sequence, so
// ties at that instant fall as they would have. Every completion settled
// without an event goes to the kernel's ledger (Kernel.Settle), so its Events,
// clock and Pending read what they would with one event per slice and per
// job.
type CPU struct {
	id       int
	k        *sim.Kernel
	busyNS   [2]int64 // by Class
	exec     runReal
	realQ    []*Job
	simQ     []*Job
	busy     bool
	cur      *Job
	curStart sim.Time
	curEnd   sim.Time // when cur completes, or stops at a slice boundary
	curEvt   sim.EventID
	stopped  bool
	solo     bool // the only CPU of its set: a real job's end may go unheard

	// unheard: cur is a real job whose end at curEnd has no kernel event yet;
	// seq is the insertion sequence reserved for it.
	unheard bool
	seq     int64

	// onComplete is the single completion closure, bound once: completion
	// always applies to the running job, so dispatch schedules this
	// instead of allocating a fresh closure per job.
	onComplete func()
	free       sim.FreeList[*Job] // recycled pooled jobs
}

// NewCPU returns an idle CPU attached to the kernel, alone in its set until
// NewCPUSet gives it company. exec may be nil when the CPU will only ever run
// simulated jobs (e.g. a non-replicated server).
func NewCPU(id int, k *sim.Kernel, exec runReal) *CPU {
	c := &CPU{id: id, k: k, exec: exec, solo: true}
	c.onComplete = c.complete
	k.AtRest(c.rest)
	return c
}

// newJob takes a pooled Job (or allocates one) for the Submit* helpers.
func (c *CPU) newJob() *Job {
	j := c.free.Get()
	if j == nil {
		j = &Job{pooled: true}
	}
	return j
}

// BusyNS reports the busy nanoseconds this CPU has spent on one class.
func (c *CPU) BusyNS(class Class) int64 { return c.busyNS[class] }

// idle reports whether the CPU has nothing running and nothing queued.
func (c *CPU) idle() bool { return !c.busy && len(c.realQ)+len(c.simQ) == 0 }

// runsSim reports whether a simulated job is running.
func (c *CPU) runsSim() bool { return c.busy && c.cur.Fn == nil }

// Stop makes the CPU drop all work, modeling a crashed host. Pending and
// future jobs are discarded and Done callbacks never fire. What completed
// before now counts: an unheard end, and the slices a run has finished.
func (c *CPU) Stop() {
	now := c.k.Now()
	switch {
	case c.unheard && c.curEnd <= now:
		c.settle()
	case c.unheard:
		c.unheard = false
		c.k.Unreserve(c.seq)
	case c.runsSim():
		c.finishSlices(now)
	}
	c.stopped = true
	c.realQ = nil
	c.simQ = nil
	if c.busy && c.curEvt != 0 {
		c.k.Cancel(c.curEvt)
	}
	c.busy = false
	c.cur = nil
}

// Restart brings a stopped CPU back with empty queues — the jobs dropped at
// crash time stay dropped; only new submissions execute.
func (c *CPU) Restart() { c.stopped = false }

// Submit enqueues a job for execution, dispatching immediately if possible.
func (c *CPU) Submit(j *Job) {
	if c.stopped {
		return
	}
	c.hear()
	if j.Fn != nil {
		c.realQ = append(c.realQ, j)
		if c.runsSim() {
			c.preemptCurrent()
		}
	} else {
		j.remaining = j.Dur
		c.simQ = append(c.simQ, j)
		if c.runsSim() {
			c.yield()
		}
	}
	if !c.busy {
		c.dispatch()
	}
}

// cut ends the run that counts its processing in left at its next slice
// boundary, where Done fires: running, it stops there; queued, it runs only
// to there. It does nothing when no such run is on the CPU.
func (c *CPU) cut(left *sim.Time) {
	if c.runsSim() && c.cur.left == left {
		c.cur.cut = true
		c.yield()
		return
	}
	for _, j := range c.simQ {
		if j.left == left {
			j.cut = true
		}
	}
}

// cutAll cuts every simulated job on the CPU.
func (c *CPU) cutAll() {
	for _, j := range c.simQ {
		j.cut = true
	}
	if c.runsSim() {
		c.cur.cut = true
		c.yield()
	}
}

// hear settles the running real job's unheard end if it has passed, and
// otherwise files its completion at the reserved sequence: a job is about to
// queue behind it.
func (c *CPU) hear() {
	switch {
	case !c.unheard:
	case c.curEnd <= c.k.Now():
		c.settle()
	default:
		c.unheard = false
		c.curEvt = c.k.ScheduleReserved(c.curEnd, sim.PriorityHigh, c.seq, c.onComplete)
	}
}

// settle ends the unheard real job at curEnd, a completion without an event.
func (c *CPU) settle() {
	c.unheard = false
	c.k.SettleReserved(c.seq, c.curEnd)
	c.retire()
}

// yield moves the running simulated job's completion to its next slice
// boundary, if it lies later: a job now waits for that boundary.
func (c *CPU) yield() {
	j := c.cur
	ran := j.Dur - j.remaining
	at := c.curStart + j.boundaryAfter(ran+c.k.Now()-c.curStart) - ran
	if at < c.curEnd {
		c.k.Cancel(c.curEvt)
		c.curEnd = at
		c.curEvt = c.k.SchedulePriAt(at, sim.PriorityHigh, c.onComplete)
	}
}

// preemptCurrent suspends the running simulated job so the CPU can be
// reassigned to a real job (paper Section 3.1: "As real jobs have a higher
// priority, simulated transaction executing can be preempted").
func (c *CPU) preemptCurrent() {
	j := c.cur
	now := c.k.Now()
	ran := j.Dur - j.remaining
	c.k.Settle(j.boundaries(ran, ran+now-c.curStart), now)
	c.busyNS[ClassSim] += int64(now - c.curStart)
	j.remaining -= now - c.curStart
	c.k.Cancel(c.curEvt)
	// Resume at the front of the simulated queue (shift in place).
	c.simQ = append(c.simQ, nil)
	copy(c.simQ[1:], c.simQ)
	c.simQ[0] = j
	c.busy = false
	c.cur = nil
	c.curEvt = 0
}

// finishSlices counts the slices the running simulated job has finished by
// to, the slice under way not included, and restarts its account at the last
// boundary.
func (c *CPU) finishSlices(to sim.Time) {
	j := c.cur
	ran := j.Dur - j.remaining
	n := j.boundaries(ran, ran+to-c.curStart)
	if n <= 0 {
		return
	}
	last := (ran + to - c.curStart) / j.quantum * j.quantum
	c.busyNS[ClassSim] += int64(last - ran)
	c.curStart += last - ran
	j.remaining = j.Dur - last
	c.k.Settle(n, c.curStart)
}

// rest settles, once the kernel has run everything due by limit, what the
// CPU owes by then without an event: an unheard end, and the slice
// boundaries a run has passed.
func (c *CPU) rest(limit sim.Time) {
	switch {
	case c.unheard && c.curEnd <= limit:
		c.settle()
	case c.runsSim():
		c.finishSlices(limit)
	}
}

// dispatch starts the next pending job, real jobs first.
func (c *CPU) dispatch() {
	if c.busy || c.stopped {
		return
	}
	var j *Job
	switch {
	case len(c.realQ) > 0:
		j = c.realQ[0]
		copy(c.realQ, c.realQ[1:])
		c.realQ = c.realQ[:len(c.realQ)-1]
	case len(c.simQ) > 0:
		j = c.simQ[0]
		copy(c.simQ, c.simQ[1:])
		c.simQ = c.simQ[:len(c.simQ)-1]
	default:
		return
	}
	c.busy = true
	c.cur = j

	var dur sim.Time
	if j.Fn != nil {
		if c.exec == nil {
			panic(fmt.Sprintf("csrt: CPU %d received a real job but has no executor", c.id))
		}
		// Execute the real code now; the measured cost becomes the
		// busy period (Figure 1a: δ2 = ∆1).
		dur = c.exec(j.Fn)
	} else {
		// A run goes to its end unless a job waits or it is cut.
		ran := j.Dur - j.remaining
		stop := j.Dur
		if j.cut || len(c.simQ) > 0 {
			stop = j.boundaryAfter(ran)
		}
		dur = stop - ran
	}
	if dur < 0 {
		dur = 0
	}
	c.curStart = c.k.Now()
	c.curEnd = c.curStart + dur
	if j.Fn != nil && j.Done == nil && c.solo && len(c.realQ)+len(c.simQ) == 0 {
		c.unheard, c.seq = true, c.k.Reserve()
		return
	}
	c.curEvt = c.k.SchedulePri(dur, sim.PriorityHigh, c.onComplete)
}

// complete is the running job's completion event: at the end of a real job,
// or where a simulated job ends or stops at a slice boundary.
func (c *CPU) complete() {
	if j := c.cur; j.Fn == nil {
		ran := j.Dur - j.remaining
		c.k.Settle(j.boundaries(ran, ran+c.curEnd-c.curStart-1), c.curEnd)
		j.remaining -= c.curEnd - c.curStart
	}
	done := c.retire()
	if done != nil && !c.stopped {
		done()
	}
	c.dispatch()
}

// retire ends the running job at curEnd: its busy time counts, a run's
// owner learns what it has left, and a pooled job goes back to the free
// list. It returns the job's Done.
func (c *CPU) retire() func() {
	j := c.cur
	c.busyNS[j.class()] += int64(c.curEnd - c.curStart)
	c.busy = false
	c.cur = nil
	c.curEvt = 0
	done := j.Done
	if j.left != nil {
		*j.left = j.remaining
	}
	if j.pooled {
		*j = Job{pooled: true}
		c.free.Put(j)
	}
	return done
}

// CPUSet is the collection of processors of one site. Simulated jobs are
// spread round-robin across all CPUs (taking any idle CPU first, as the
// paper's scheduler does); real protocol jobs all execute on CPU 0,
// preserving the single-threaded semantics of the protocol stack.
type CPUSet struct {
	cpus []*CPU
	next int
	// simFactor scales simulated-job durations (gray-failure degradation:
	// transaction processing crawls while the protocol's real jobs — and
	// with them heartbeats — stay timely, so the site is never suspected).
	simFactor float64
}

// NewCPUSet creates n CPUs attached to the kernel. exec is nil for every
// caller outside this package's tests: Runtime.Bind installs CPU 0's executor.
func NewCPUSet(n int, k *sim.Kernel, exec runReal) *CPUSet {
	if n < 1 {
		n = 1
	}
	s := &CPUSet{cpus: make([]*CPU, n)}
	for i := range s.cpus {
		s.cpus[i] = NewCPU(i, k, nil)
		s.cpus[i].solo = n == 1
	}
	s.cpus[0].exec = exec
	return s
}

// N reports the number of CPUs.
func (s *CPUSet) N() int { return len(s.cpus) }

// CPU returns processor i.
func (s *CPUSet) CPU(i int) *CPU { return s.cpus[i] }

// SubmitSim schedules a simulated job of the given duration on the next
// available CPU.
func (s *CPUSet) SubmitSim(dur sim.Time, done func()) {
	if s.simFactor > 1 {
		dur = sim.Time(float64(dur) * s.simFactor)
	}
	cpu := s.pick()
	j := cpu.newJob()
	j.Dur, j.Done = dur, done
	cpu.Submit(j)
}

// SubmitRun hands *left of simulated processing to the CPUs as a run: round-
// robin slices of at most quantum, the last one the remainder, a quantum of
// 0 making it one slice (Section 3.1). Done fires where the CPU stops the
// run, with *left what it has left (0 once all of it is spent), and the
// owner submits that again to go on. A set of one CPU at full speed takes
// the run whole, as one pooled job, and stops it at the first slice
// boundary where another simulated job waits or Cut asks it to, and at its
// end otherwise. A larger set, or a slowed one, takes one slice at a time
// through SubmitSim and takes it off *left at once: pick may place each slice
// on another CPU, and the slowdown scales each slice as it is submitted.
func (s *CPUSet) SubmitRun(left *sim.Time, quantum sim.Time, done func()) {
	if len(s.cpus) > 1 || s.simFactor > 1 {
		q := *left
		if quantum > 0 && q > quantum {
			q = quantum
		}
		*left -= q
		s.SubmitSim(q, done)
		return
	}
	c := s.cpus[0]
	j := c.newJob()
	j.Dur, j.quantum, j.left, j.Done = *left, quantum, left, done
	c.Submit(j)
}

// Cut ends the run that counts its processing in left (SubmitRun) at its
// next slice boundary. Only a set of one CPU holds runs whole; a larger
// set's slices end at their boundaries anyway.
func (s *CPUSet) Cut(left *sim.Time) { s.cpus[0].cut(left) }

// CutRuns cuts every run on the set.
func (s *CPUSet) CutRuns() {
	for _, c := range s.cpus {
		c.cutAll()
	}
}

// SetSimSlowdown scales every subsequent simulated job's duration by factor
// (gray failure: a degraded site processes transactions factor times slower
// while real protocol jobs run at full speed). factor <= 1 restores normal
// speed. A slowdown cuts every run, so each goes on a slice at a time at the
// new speed from its next boundary.
func (s *CPUSet) SetSimSlowdown(factor float64) {
	s.simFactor = factor
	if factor > 1 {
		s.CutRuns()
	}
}

// SubmitReal schedules a real job on CPU 0.
func (s *CPUSet) SubmitReal(fn func(), done func()) {
	cpu := s.cpus[0]
	j := cpu.newJob()
	j.Fn, j.Done = fn, done
	cpu.Submit(j)
}

// pick chooses an idle CPU if one exists, else round-robins.
func (s *CPUSet) pick() *CPU {
	for i := 0; i < len(s.cpus); i++ {
		idx := (s.next + i) % len(s.cpus)
		if s.cpus[idx].idle() {
			s.next = (idx + 1) % len(s.cpus)
			return s.cpus[idx]
		}
	}
	cpu := s.cpus[s.next]
	s.next = (s.next + 1) % len(s.cpus)
	return cpu
}

// Stop stops every CPU (crash).
func (s *CPUSet) Stop() {
	for _, c := range s.cpus {
		c.Stop()
	}
}

// Restart restarts every CPU (crash recovery).
func (s *CPUSet) Restart() {
	for _, c := range s.cpus {
		c.Restart()
	}
}

// BusyNS sums busy nanoseconds over all CPUs for one class.
func (s *CPUSet) BusyNS(class Class) int64 {
	var t int64
	for _, c := range s.cpus {
		t += c.busyNS[class]
	}
	return t
}

// percent reports busy nanoseconds as a share of elapsed time on every CPU.
func (s *CPUSet) percent(busyNS int64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return 100 * float64(busyNS) / (float64(elapsed) * float64(len(s.cpus)))
}

// Utilization reports aggregate CPU utilization over elapsed time: the sum
// of the two classes.
func (s *CPUSet) Utilization(elapsed sim.Time) float64 {
	return s.percent(s.BusyNS(ClassSim)+s.BusyNS(ClassReal), elapsed)
}

// ClassUtilization reports per-class utilization over elapsed time.
func (s *CPUSet) ClassUtilization(class Class, elapsed sim.Time) float64 {
	return s.percent(s.BusyNS(class), elapsed)
}
