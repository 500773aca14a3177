package csrt

import (
	"testing"

	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

func TestCPUSetRoutesRealJobsToCPU0(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 3)
	set := rt.CPUs()
	for i := 0; i < 5; i++ {
		set.SubmitReal(func() { rt.Charge(sim.Millisecond) }, nil)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := set.CPU(0).BusyNS(ClassReal); got != int64(5*sim.Millisecond) {
		t.Fatalf("cpu0 real busy = %d", got)
	}
	for i := 1; i < 3; i++ {
		if set.CPU(i).BusyNS(ClassReal) != 0 {
			t.Fatalf("cpu%d ran real work", i)
		}
	}
}

func TestCPUMultiplePreemptions(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	cpu := rt.CPUs().CPU(0)
	var simDone sim.Time
	cpu.Submit(&Job{Dur: 10 * sim.Millisecond, Done: func() { simDone = k.Now() }})
	// Two real jobs preempt at 2ms and 5ms, each costing 1ms.
	for _, at := range []sim.Time{2 * sim.Millisecond, 5 * sim.Millisecond} {
		k.ScheduleAt(at, func() {
			cpu.Submit(&Job{Fn: func() { rt.Charge(sim.Millisecond) }})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 10ms of work + 2ms of preemption = 12ms.
	if simDone != 12*sim.Millisecond {
		t.Fatalf("sim job done at %v, want 12ms", simDone)
	}
	if got := cpu.BusyNS(ClassSim); got != int64(10*sim.Millisecond) {
		t.Fatalf("sim busy = %d, want 10ms", got)
	}
}

func TestCPUSetUtilizationAccounting(t *testing.T) {
	k := sim.NewKernel()
	set := NewCPUSet(2, k, nil)
	set.SubmitSim(10*sim.Millisecond, nil)
	set.SubmitSim(10*sim.Millisecond, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both CPUs busy 10ms of a 10ms window: 100%.
	if u := set.Utilization(10 * sim.Millisecond); u != 100 {
		t.Fatalf("utilization = %v", u)
	}
	if u := set.Utilization(20 * sim.Millisecond); u != 50 {
		t.Fatalf("utilization = %v", u)
	}
	if set.N() != 2 {
		t.Fatal("N wrong")
	}

	// Sim and real time split on CPU 0: 500us + 250us of transaction
	// processing, 250us of protocol code, over windows of 1ms and 2ms.
	for _, ncpu := range []int{1, 2, 4} {
		k := sim.NewKernel()
		rt, _ := newTestRuntime(k, ncpu)
		set := rt.CPUs()
		cpu := set.CPU(0)
		cpu.Submit(&Job{Dur: 500 * sim.Microsecond})
		cpu.Submit(&Job{Fn: func() { rt.Charge(250 * sim.Microsecond) }})
		cpu.Submit(&Job{Dur: 250 * sim.Microsecond})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if simNS, realNS := set.BusyNS(ClassSim), set.BusyNS(ClassReal); simNS != 750_000 || realNS != 250_000 {
			t.Fatalf("%d CPUs: busy sim %d real %d ns, want 750000 and 250000", ncpu, simNS, realNS)
		}
		n := float64(ncpu) // n CPUs divide the total
		for _, c := range []struct {
			window                    sim.Time
			simPct, realPct, totalPct float64
		}{
			{sim.Millisecond, 75, 25, 100},
			{2 * sim.Millisecond, 37.5, 12.5, 50},
			{0, 0, 0, 0}, // zero-length window
			{-sim.Millisecond, 0, 0, 0},
		} {
			if got := set.ClassUtilization(ClassSim, c.window); got != c.simPct/n {
				t.Errorf("%d CPUs, %v: sim utilization %v, want %v", ncpu, c.window, got, c.simPct/n)
			}
			if got := set.ClassUtilization(ClassReal, c.window); got != c.realPct/n {
				t.Errorf("%d CPUs, %v: real utilization %v, want %v", ncpu, c.window, got, c.realPct/n)
			}
			// Utilization = sim + real.
			if got := set.Utilization(c.window); got != c.totalPct/n {
				t.Errorf("%d CPUs, %v: utilization %v, want %v", ncpu, c.window, got, c.totalPct/n)
			}
		}
	}
}

func TestRuntimeMulticastChargesOnce(t *testing.T) {
	k := sim.NewKernel()
	port := &fakePort{}
	cost := CostParams{SendFixed: 100 * sim.Microsecond}
	rt := NewRuntime(k, 1, &ModelProfiler{}, port, cost, sim.NewRNG(1))
	rt.Bind(NewCPUSet(1, k, nil))
	rt.CPUs().SubmitReal(func() {
		if err := rt.Multicast(1, make([]byte, 10)); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}, nil)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(port.sends) != 1 || !port.sends[0].multi {
		t.Fatalf("sends = %+v", port.sends)
	}
	// One multicast = one send cost, regardless of group size.
	if got := rt.CPUs().BusyNS(ClassReal); got != int64(100*sim.Microsecond) {
		t.Fatalf("busy = %d, want one send cost", got)
	}
}

func TestRuntimeDeliverPreservesFIFO(t *testing.T) {
	k := sim.NewKernel()
	rt, _ := newTestRuntime(k, 1)
	var got []byte
	rt.SetReceiver(func(_ runtimeapi.NodeID, data []byte) {
		got = append(got, data[0])
		rt.Charge(5 * sim.Millisecond) // slow handler: later deliveries queue
	})
	for i := byte(0); i < 5; i++ {
		payload := []byte{i}
		k.ScheduleAt(sim.Time(i)*sim.Millisecond, func() { rt.Deliver(2, payload) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d", len(got))
	}
}

func TestCostParams(t *testing.T) {
	c := CostParams{SendFixed: sim.Microsecond, SendPerByte: 2, RecvFixed: 3 * sim.Microsecond, RecvPerByte: 1}
	if c.SendCost(100) != sim.Microsecond+200*sim.Nanosecond {
		t.Fatalf("send cost = %v", c.SendCost(100))
	}
	if c.RecvCost(100) != 3*sim.Microsecond+100*sim.Nanosecond {
		t.Fatalf("recv cost = %v", c.RecvCost(100))
	}
	d := DefaultCostParams()
	if d.SendFixed <= 0 || d.RecvFixed <= 0 {
		t.Fatal("defaults empty")
	}
}
