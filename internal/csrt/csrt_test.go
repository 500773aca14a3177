package csrt

import (
	"testing"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// fakePort records injected packets with their delays.
type fakePort struct {
	mtu   int
	sends []portSend
}

type portSend struct {
	dst   runtimeapi.NodeID
	group runtimeapi.Group
	multi bool
	size  int
	delay sim.Time
}

func (p *fakePort) Send(dst runtimeapi.NodeID, data []byte, delay sim.Time) error {
	p.sends = append(p.sends, portSend{dst: dst, size: len(data), delay: delay})
	return nil
}

func (p *fakePort) Multicast(g runtimeapi.Group, data []byte, delay sim.Time) error {
	p.sends = append(p.sends, portSend{group: g, multi: true, size: len(data), delay: delay})
	return nil
}

func (p *fakePort) MTU() int {
	if p.mtu == 0 {
		return 1400
	}
	return p.mtu
}

func newTestRuntime(k *sim.Kernel, ncpu int) (*Runtime, *fakePort) {
	port := &fakePort{}
	rt := NewRuntime(k, 1, &ModelProfiler{}, port, CostParams{}, sim.NewRNG(1))
	rt.Bind(NewCPUSet(ncpu, k, nil))
	return rt, port
}

func TestCPUSimJobsRunSequentially(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(0, k, nil)
	var ends []sim.Time
	cpu.Submit(&Job{Dur: 10 * sim.Millisecond, Done: func() { ends = append(ends, k.Now()) }})
	cpu.Submit(&Job{Dur: 5 * sim.Millisecond, Done: func() { ends = append(ends, k.Now()) }})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ends) != 2 || ends[0] != 10*sim.Millisecond || ends[1] != 15*sim.Millisecond {
		t.Fatalf("ends = %v, want [10ms 15ms]", ends)
	}
	if got := cpu.BusyNS(ClassSim); got != int64(15*sim.Millisecond) {
		t.Fatalf("busy = %d, want 15ms", got)
	}
}

func TestCPURealJobPreemptsSimJob(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	cpu := rt.CPUs().CPU(0)

	var simDone, realDone sim.Time
	cpu.Submit(&Job{Dur: 10 * sim.Millisecond, Done: func() { simDone = k.Now() }})
	// At t=4ms a real job costing 2ms arrives: it should preempt the
	// simulated job, which then resumes and finishes at 10+2 = 12ms.
	k.Schedule(4*sim.Millisecond, func() {
		cpu.Submit(&Job{
			Fn:   func() { rt.Charge(2 * sim.Millisecond) },
			Done: func() { realDone = k.Now() },
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if realDone != 6*sim.Millisecond {
		t.Fatalf("real job done at %v, want 6ms", realDone)
	}
	if simDone != 12*sim.Millisecond {
		t.Fatalf("sim job done at %v, want 12ms", simDone)
	}
	if got := cpu.BusyNS(ClassReal); got != int64(2*sim.Millisecond) {
		t.Fatalf("real busy = %d, want 2ms", got)
	}
	if got := cpu.BusyNS(ClassSim); got != int64(10*sim.Millisecond) {
		t.Fatalf("sim busy = %d, want 10ms", got)
	}
}

func TestCPUStopDropsWork(t *testing.T) {
	k := sim.NewKernel()
	cpu := NewCPU(0, k, nil)
	ran := false
	cpu.Submit(&Job{Dur: 10 * sim.Millisecond, Done: func() { ran = true }})
	k.Schedule(sim.Millisecond, cpu.Stop)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("job completed after Stop")
	}
	cpu.Submit(&Job{Dur: sim.Millisecond, Done: func() { ran = true }})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("job accepted after Stop")
	}
}

func TestCPUSetSpreadsSimJobsAcrossCPUs(t *testing.T) {
	k := sim.NewKernel()
	set := NewCPUSet(3, k, nil)
	done := 0
	for i := 0; i < 3; i++ {
		set.SubmitSim(10*sim.Millisecond, func() { done++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// All three should finish at 10ms (parallel), not serialized.
	if k.Now() != 10*sim.Millisecond {
		t.Fatalf("finished at %v, want 10ms (parallel execution)", k.Now())
	}
	if done != 3 {
		t.Fatalf("done = %d", done)
	}
}

func TestRuntimeRealJobCostOccupiesCPU(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var first, second sim.Time
	rt.CPUs().SubmitReal(func() { rt.Charge(3 * sim.Millisecond) }, func() { first = k.Now() })
	rt.CPUs().SubmitReal(func() { rt.Charge(1 * sim.Millisecond) }, func() { second = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 3*sim.Millisecond || second != 4*sim.Millisecond {
		t.Fatalf("completions at %v, %v; want 3ms, 4ms", first, second)
	}
}

func TestRuntimeNowAdvancesWithinRealJob(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var before, after sim.Time
	rt.CPUs().SubmitReal(func() {
		before = rt.Now()
		rt.Charge(5 * sim.Millisecond)
		after = rt.Now()
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("before = %v, want 0", before)
	}
	if after != 5*sim.Millisecond {
		t.Fatalf("after = %v, want 5ms", after)
	}
}

// The paper's Figure 1(b): an event scheduled with delay δq from real code
// that has consumed ∆1 so far is enqueued at ∆1+δq, but the job itself only
// executes once the CPU frees from the current real job (∆1+∆2).
func TestRuntimeScheduleFromRealCodeOffsetsByElapsed(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var fired sim.Time
	rt.CPUs().SubmitReal(func() {
		rt.Charge(10 * sim.Millisecond) // ∆1
		rt.NewTimer(func() { fired = k.Now() }).Arm(2 * sim.Millisecond)
		rt.Charge(5 * sim.Millisecond) // ∆2, after scheduling
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Enqueued at ∆1+δq = 12ms; CPU busy with the enclosing job until
	// ∆1+∆2 = 15ms, so the callback runs at 15ms.
	if fired != 15*sim.Millisecond {
		t.Fatalf("timer fired at %v, want 15ms (after ∆1+∆2)", fired)
	}
}

// When the enclosing job ends before the scheduled instant, the callback
// runs exactly at ∆1+δq.
func TestRuntimeScheduleFiresAtOffsetWhenCPUIdle(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var fired sim.Time
	rt.CPUs().SubmitReal(func() {
		rt.Charge(10 * sim.Millisecond) // ∆1
		rt.NewTimer(func() { fired = k.Now() }).Arm(4 * sim.Millisecond)
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 14*sim.Millisecond {
		t.Fatalf("timer fired at %v, want 14ms (∆1 + δq)", fired)
	}
}

func TestRuntimeScheduleDelayShorterThanElapsedNotInPast(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	fired := sim.Time(-1)
	rt.CPUs().SubmitReal(func() {
		rt.Charge(10 * sim.Millisecond)
		// δq < ∆1: would land in the past without the correction.
		rt.NewTimer(func() { fired = k.Now() }).Arm(sim.Millisecond)
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 11*sim.Millisecond {
		t.Fatalf("timer fired at %v, want 11ms", fired)
	}
}

func TestRuntimeSendDelayIncludesElapsedAndOverhead(t *testing.T) {
	k := sim.NewKernel()
	port := &fakePort{}
	cost := CostParams{SendFixed: 100 * sim.Microsecond, SendPerByte: 10}
	rt := NewRuntime(k, 1, &ModelProfiler{}, port, cost, sim.NewRNG(1))
	rt.Bind(NewCPUSet(1, k, nil))
	rt.CPUs().SubmitReal(func() {
		rt.Charge(1 * sim.Millisecond)
		if err := rt.Send(2, make([]byte, 100)); err != nil {
			t.Errorf("Send: %v", err)
		}
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(port.sends) != 1 {
		t.Fatalf("sends = %d", len(port.sends))
	}
	// delay = 1ms charge + 100us fixed + 100B*10ns = 1.101ms
	want := 1*sim.Millisecond + 100*sim.Microsecond + 1000*sim.Nanosecond
	if port.sends[0].delay != want {
		t.Fatalf("delay = %v, want %v", port.sends[0].delay, want)
	}
	// CPU stays busy for the same total.
	if got := rt.CPUs().BusyNS(ClassReal); got != int64(want) {
		t.Fatalf("busy = %d, want %d", got, int64(want))
	}
}

func TestRuntimeSendRejectsOversizeAndDown(t *testing.T) {
	k := sim.NewKernel()
	rt, port := newTestRuntime(k, 1)
	port.mtu = 64
	if err := rt.Send(2, make([]byte, 65)); err != runtimeapi.ErrTooBig {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
	rt.Crash()
	if err := rt.Send(2, make([]byte, 10)); err != runtimeapi.ErrDown {
		t.Fatalf("err = %v, want ErrDown", err)
	}
}

func TestRuntimeDeliverRunsReceiverWithRecvCost(t *testing.T) {
	k := sim.NewKernel()
	port := &fakePort{}
	cost := CostParams{RecvFixed: 50 * sim.Microsecond, RecvPerByte: 10}
	rt := NewRuntime(k, 1, &ModelProfiler{}, port, cost, sim.NewRNG(1))
	rt.Bind(NewCPUSet(1, k, nil))
	var gotSrc runtimeapi.NodeID
	var gotLen int
	rt.SetReceiver(func(src runtimeapi.NodeID, data []byte) {
		gotSrc, gotLen = src, len(data)
		rt.Charge(200 * sim.Microsecond)
	})
	k.Schedule(sim.Millisecond, func() { rt.Deliver(7, make([]byte, 100)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if gotSrc != 7 || gotLen != 100 {
		t.Fatalf("receiver got src=%d len=%d", gotSrc, gotLen)
	}
	// busy = recv cost (50us + 1us) + handler 200us
	want := int64(50*sim.Microsecond + 1*sim.Microsecond + 200*sim.Microsecond)
	if got := rt.CPUs().BusyNS(ClassReal); got != want {
		t.Fatalf("busy = %d, want %d", got, want)
	}
}

func TestRuntimeCrashDropsDeliveriesAndTimers(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	fired := false
	received := false
	rt.SetReceiver(func(runtimeapi.NodeID, []byte) { received = true })
	rt.NewTimer(func() { fired = true }).Arm(10 * sim.Millisecond)
	k.Schedule(5*sim.Millisecond, rt.Crash)
	k.Schedule(6*sim.Millisecond, func() { rt.Deliver(2, []byte{1}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired || received {
		t.Fatalf("fired=%v received=%v after crash, want false", fired, received)
	}
}

func TestRuntimeTimerCancel(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	fired := false
	tm := rt.NewTimer(func() { fired = true })
	tm.Arm(10 * sim.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// TestRuntimeTimerLifecycle pins what a Timer's owner relies on. A stop
// before the fire withdraws the kernel event itself, so no event and no job
// runs; a second stop reports false. A timer that fired can be armed again.
// An arm while another is pending leaves that one to fire: Stop withdraws
// the latest alone. A fire while the node is down runs nothing and leaves
// the timer disarmed, so it can be armed again after the restart.
func TestRuntimeTimerLifecycle(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var fired []sim.Time
	tm := rt.NewTimer(func() { fired = append(fired, k.Now()) })
	run := func(until sim.Time) {
		t.Helper()
		if err := k.RunUntil(until); err != nil {
			t.Fatal(err)
		}
	}

	tm.Arm(10 * sim.Millisecond)
	run(5 * sim.Millisecond)
	executed := k.Executed()
	if !tm.Stop() {
		t.Fatal("Stop of an armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	run(20 * sim.Millisecond)
	if k.Executed() != executed || len(fired) != 0 || rt.CPUs().BusyNS(ClassReal) != 0 {
		t.Fatalf("stopped timer: %d events ran (want 0), fired at %v", k.Executed()-executed, fired)
	}

	first := k.Now() + sim.Millisecond
	tm.Arm(sim.Millisecond)
	run(30 * sim.Millisecond)
	if tm.Stop() {
		t.Fatal("Stop after the fire reported true")
	}
	second := k.Now() + sim.Millisecond
	tm.Arm(sim.Millisecond)
	run(40 * sim.Millisecond)
	if len(fired) != 2 || fired[0] != first || fired[1] != second {
		t.Fatalf("fired at %v, want [%v %v]", fired, first, second)
	}

	early := k.Now() + 2*sim.Millisecond
	tm.Arm(2 * sim.Millisecond)
	tm.Arm(5 * sim.Millisecond)
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop of the latest arm: want true once")
	}
	tm.Arm(6 * sim.Millisecond)
	late := k.Now() + 6*sim.Millisecond
	run(50 * sim.Millisecond)
	if len(fired) != 4 || fired[2] != early || fired[3] != late {
		t.Fatalf("two pending arms fired at %v, want [%v %v] after the first two", fired, early, late)
	}
	if tm.Stop() {
		t.Fatal("Stop after both arms fired reported true")
	}
	fired = fired[:2]

	tm.Arm(10 * sim.Millisecond)
	k.Schedule(5*sim.Millisecond, rt.Crash)
	run(70 * sim.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("a timer fired on a crashed node: %v", fired)
	}
	if tm.Stop() {
		t.Fatal("a timer that fired while down still reports armed")
	}
	rt.Restart()
	third := k.Now() + sim.Millisecond
	tm.Arm(sim.Millisecond)
	run(80 * sim.Millisecond)
	if len(fired) != 3 || fired[2] != third {
		t.Fatalf("after the restart fired at %v, want a third fire at %v", fired, third)
	}
}

func TestRuntimeClockDrift(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	rt.SetClockDrift(1.0) // local clock runs at half speed
	var fired sim.Time
	rt.NewTimer(func() { fired = k.Now() }).Arm(10 * sim.Millisecond)
	var busy sim.Time
	rt.CPUs().SubmitReal(func() { rt.Charge(4 * sim.Millisecond) }, func() { busy = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Delays are scaled up: 10ms -> 20ms.
	if fired != 20*sim.Millisecond {
		t.Fatalf("drifted timer at %v, want 20ms", fired)
	}
	// Measured durations scaled down: 4ms -> 2ms.
	if busy != 2*sim.Millisecond {
		t.Fatalf("drifted job completed at %v, want 2ms", busy)
	}
}

func TestRuntimeSchedulingLatencyFault(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	rt.SetSchedulingLatency(func(*sim.RNG) sim.Time { return 7 * sim.Millisecond }, sim.NewRNG(1))
	var fired sim.Time
	rt.NewTimer(func() { fired = k.Now() }).Arm(3 * sim.Millisecond)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10*sim.Millisecond {
		t.Fatalf("delayed timer at %v, want 10ms", fired)
	}
	// Zero-delay events (process not suspended) are not delayed.
	var immediate sim.Time = -1
	rt.NewTimer(func() { immediate = k.Now() }).Arm(0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if immediate != 10*sim.Millisecond {
		t.Fatalf("immediate event at %v, want 10ms (no added latency)", immediate)
	}
}

func TestModelProfilerIgnoresNegativeCharge(t *testing.T) {
	p := &ModelProfiler{}
	p.Begin()
	p.Charge(-5)
	p.Charge(3)
	if p.End() != 3 {
		t.Fatal("negative charges must be ignored")
	}
}

// TestRuntimeSteadyStateAllocs pins the per-message budget of the runtime:
// once the thunk, job and kernel-event pools have warmed up, starting a job,
// receiving a datagram whose handler charges and sends, and running a
// simulated job allocate nothing. That includes Deliver's copy of the
// datagram: the reception waits behind a busy CPU while the caller
// overwrites its buffer, and the receiver still reads what was delivered.
// So does a timer's cycle: armed, fired, armed again from its own callback
// and stopped before it fires again. So does a run on a CPU alone in its set, through an unheard real job settled by the run's submission, a
// real job that preempts the run, a simulated job that makes it stop at a
// boundary, a cut, and an unheard real job the kernel settles at rest. The
// pin holds Runtime.StartJob, Deliver, Send and Multicast, timer.Arm, Stop
// and expire, oneShot.run, delivery.run, CPUSet.SubmitReal, SubmitSim, SubmitRun and Cut, CPU.Submit,
// cut, hear, yield, preemptCurrent, dispatch, complete, retire, rest and
// finishSlices, and Kernel.Reserve and ScheduleReserved. Once the kernel
// drains, the three pools (CPU.free, freeJob, freeDlv) have nothing lent.
func TestRuntimeSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	port := &fakePort{}
	rt := NewRuntime(k, 1, &ModelProfiler{}, port, DefaultCostParams(), sim.NewRNG(1))
	rt.Bind(NewCPUSet(2, k, nil))
	solo := NewRuntime(k, 2, &ModelProfiler{}, port, DefaultCostParams(), sim.NewRNG(2))
	solo.Bind(NewCPUSet(1, k, nil))
	var left sim.Time
	var cut bool
	var resume func()
	resume = func() {
		if left > 0 && !cut {
			solo.CPUs().SubmitRun(&left, sim.Millisecond, resume)
		}
	}
	protocol := func() { solo.Charge(5 * sim.Microsecond) }
	start := func() { // the unheard job ended 5 us ago
		cut, left = false, 3*sim.Millisecond
		resume()
	}
	preempt := func() { solo.CPUs().SubmitReal(protocol, nil) }
	contend := func() { solo.CPUs().SubmitSim(50*sim.Microsecond, resume) }
	abort := func() {
		cut = true
		solo.CPUs().Cut(&left)
	}
	payload := make([]byte, 256)
	var sent byte
	rt.SetReceiver(func(src runtimeapi.NodeID, data []byte) {
		if len(data) != len(payload) || data[0] != sent || data[255] != sent {
			t.Fatalf("receiver read %d, %d: the datagram changed after Deliver returned", data[0], data[255])
		}
		rt.Charge(20 * sim.Microsecond)
		_ = rt.Send(src, data)
		_ = rt.Multicast(1, data)
	})
	job := func() { rt.Charge(5 * sim.Microsecond) }
	done := func() {}
	var tm runtimeapi.Timer
	fires := 0
	rearmed := false
	tm = rt.NewTimer(func() {
		fires++
		if !rearmed { // once a step, so a Stop that misses cannot loop
			rearmed = true
			tm.Arm(2 * sim.Millisecond)
		}
	})
	stopped := 0
	stop := func() {
		if tm.Stop() {
			stopped++
		}
	}
	step := func() {
		port.sends = port.sends[:0]
		rt.StartJob(sim.Microsecond, job)
		rearmed = false
		tm.Arm(2 * sim.Microsecond)
		k.Schedule(1500*sim.Microsecond, stop)
		rt.CPUs().SubmitReal(job, nil) // the CPU is busy: the reception queues
		sent++
		payload[0], payload[255] = sent, sent
		rt.Deliver(2, payload)
		payload[0], payload[255] = 0, 0
		rt.CPUs().SubmitSim(50*sim.Microsecond, done)
		solo.CPUs().SubmitReal(protocol, nil)
		k.Schedule(10*sim.Microsecond, start)
		k.Schedule(500*sim.Microsecond, preempt)
		k.Schedule(1200*sim.Microsecond, contend)
		k.Schedule(1600*sim.Microsecond, abort)
		k.Schedule(5*sim.Millisecond, preempt)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("StartJob+Timer+Deliver+SubmitSim+SubmitRun+Run: %v allocs/op, want 0", allocs)
	}
	if runs := 64 + 1000 + 1; fires != runs || stopped != runs {
		t.Fatalf("timer fired %d and was stopped armed %d times in %d steps, want each once a step", fires, stopped, runs)
	}
	if left != sim.Millisecond || k.Events() == k.Executed() || k.Pending() != 0 {
		t.Fatalf("run left %v (want 1ms, cut at its second boundary), %d events in %d dispatches, %d pending",
			left, k.Events(), k.Executed(), k.Pending())
	}
	if len(port.sends) != 2 {
		t.Fatalf("receiver sent %d datagrams per step, want 2", len(port.sends))
	}
	for i := range rt.CPUs().N() {
		if n := rt.CPUs().CPU(i).free.Out(); n != 0 {
			t.Errorf("CPU %d: %d pooled jobs lent after the kernel drained", i, n)
		}
	}
	if n := solo.CPUs().CPU(0).free.Out(); n != 0 {
		t.Errorf("solo CPU: %d pooled jobs lent after the kernel drained", n)
	}
	if j, d := rt.freeJob.Out(), rt.freeDlv.Out(); j != 0 || d != 0 {
		t.Errorf("%d job thunks and %d receptions lent after the kernel drained", j, d)
	}
}
