package sim

import "testing"

// farDelays are the delays the allocation pins cover: a near event (heap or
// the next bucket), and timers that wait in level 0, level 1, and at the far
// end of level 1.
var farDelays = []Time{Microsecond, 100 * Millisecond, 10 * Second, Hour}

// TestKernelScheduleAllocFree pins the scheduler's steady-state budget:
// once the slot slab, calendar nodes and heap have warmed up, Schedule plus
// dispatch of a prebound callback performs zero allocations, however far
// ahead the event is due. It holds Kernel.Schedule, SchedulePri,
// SchedulePriAt, ScheduleAt and Step, and the calendar and heap beneath them:
// enqueue, link, settle, spill, drain, advance, cascade, push and pop.
func TestKernelScheduleAllocFree(t *testing.T) {
	for _, d := range farDelays {
		t.Run(d.String(), func(t *testing.T) {
			k := NewKernel()
			fn := func() {}
			// Warm the slab, the calendar nodes and the heap capacity.
			for i := 0; i < 64; i++ {
				k.Schedule(d, fn)
			}
			for k.Step() {
			}
			k.Schedule(d, fn)
			if d >= 100*Millisecond && k.wheeled != 1 {
				t.Fatalf("%v: timer not filed in the calendar", d)
			}
			k.Step()
			allocs := testing.AllocsPerRun(1000, func() {
				k.Schedule(d, fn)
				k.Step()
			})
			if allocs != 0 {
				t.Fatalf("Schedule(%v)+Step: %v allocs/op, want 0", d, allocs)
			}
		})
	}
}

// TestKernelCancelAllocFree pins Kernel.Cancel at zero allocations: lazy
// cancel is a slot vacate plus free-list push, and the stale node is
// dropped when its bucket spills (or popped off the heap). A live event at
// the same delay moves the clock, so the next timer lands in the calendar
// again.
func TestKernelCancelAllocFree(t *testing.T) {
	for _, d := range farDelays {
		t.Run(d.String(), func(t *testing.T) {
			k := NewKernel()
			fn := func() {}
			for i := 0; i < 64; i++ {
				k.Cancel(k.Schedule(d, fn))
				k.Schedule(d, fn)
			}
			for k.Step() {
			}
			allocs := testing.AllocsPerRun(1000, func() {
				k.Cancel(k.Schedule(d, fn))
				k.Schedule(d, fn)
				k.Step()
			})
			if allocs != 0 {
				t.Fatalf("Schedule(%v)+Cancel: %v allocs/op, want 0", d, allocs)
			}
		})
	}
}
