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
// when the CPU completes the job.
type Job struct {
	// Dur is the duration of a simulated job. Ignored when Fn is set.
	Dur sim.Time
	// Fn is the body of a real job. Its charged cost becomes the busy
	// period.
	Fn func()
	// Done fires when the CPU finishes the job.
	Done func()

	remaining sim.Time // for preempted simulated jobs
	pooled    bool     // created by SubmitSim/SubmitReal: recycled on completion
}

func (j *Job) class() Class {
	if j.Fn != nil {
		return ClassReal
	}
	return ClassSim
}

// runReal is installed by Runtime.Bind: it executes a real job body and
// returns the cost it charged.
type runReal func(fn func()) sim.Time

// CPU is one simulated processor: a busy flag plus queues of pending jobs
// (Section 2.2). Real jobs take priority over simulated jobs and preempt a
// running simulated job; the preempted job resumes afterwards with its
// remaining duration.
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
	curEnd   sim.Time
	curEvt   sim.EventID
	stopped  bool

	// onComplete is the single completion closure, bound once: completion
	// always applies to the running job, so dispatch schedules this
	// instead of allocating a fresh closure per job.
	onComplete func()
	free       sim.FreeList[*Job] // recycled pooled jobs
}

// NewCPU returns an idle CPU attached to the kernel. exec may be nil when
// the CPU will only ever run simulated jobs (e.g. a non-replicated server).
func NewCPU(id int, k *sim.Kernel, exec runReal) *CPU {
	c := &CPU{id: id, k: k, exec: exec}
	c.onComplete = func() { c.complete(c.cur) }
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

// Stop makes the CPU drop all work, modeling a crashed host. Pending and
// future jobs are discarded and Done callbacks never fire.
func (c *CPU) Stop() {
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
	if j.Fn != nil {
		c.realQ = append(c.realQ, j)
		if c.busy && c.cur != nil && c.cur.Fn == nil {
			c.preemptCurrent()
		}
	} else {
		j.remaining = j.Dur
		c.simQ = append(c.simQ, j)
	}
	if !c.busy {
		c.dispatch()
	}
}

// preemptCurrent suspends the running simulated job so the CPU can be
// reassigned to a real job (paper Section 3.1: "As real jobs have a higher
// priority, simulated transaction executing can be preempted").
func (c *CPU) preemptCurrent() {
	j := c.cur
	now := c.k.Now()
	c.busyNS[ClassSim] += int64(now - c.curStart)
	j.remaining = c.curEnd - now
	c.k.Cancel(c.curEvt)
	// Resume at the front of the simulated queue (shift in place).
	c.simQ = append(c.simQ, nil)
	copy(c.simQ[1:], c.simQ)
	c.simQ[0] = j
	c.busy = false
	c.cur = nil
	c.curEvt = 0
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
		dur = j.remaining
	}
	if dur < 0 {
		dur = 0
	}
	c.curStart = c.k.Now()
	c.curEnd = c.curStart + dur
	c.curEvt = c.k.SchedulePri(dur, sim.PriorityHigh, c.onComplete)
}

func (c *CPU) complete(j *Job) {
	c.busyNS[j.class()] += int64(c.k.Now() - c.curStart)
	c.busy = false
	c.cur = nil
	c.curEvt = 0
	done := j.Done
	if j.pooled {
		*j = Job{pooled: true}
		c.free.Put(j)
	}
	if done != nil && !c.stopped {
		done()
	}
	c.dispatch()
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

// SetSimSlowdown scales every subsequent simulated job's duration by factor
// (gray failure: a degraded site processes transactions factor times slower
// while real protocol jobs run at full speed). factor <= 1 restores normal
// speed.
func (s *CPUSet) SetSimSlowdown(factor float64) { s.simFactor = factor }

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
