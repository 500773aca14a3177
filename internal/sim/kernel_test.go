package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*Millisecond, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30*Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestKernelTieBreaksByPriorityThenInsertion(t *testing.T) {
	k := NewKernel()
	var got []string
	k.SchedulePri(Millisecond, PriorityLow, func() { got = append(got, "low") })
	k.SchedulePri(Millisecond, PriorityNormal, func() { got = append(got, "n1") })
	k.SchedulePri(Millisecond, PriorityHigh, func() { got = append(got, "high") })
	k.SchedulePri(Millisecond, PriorityNormal, func() { got = append(got, "n2") })
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"high", "n1", "n2", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestKernelZeroDelayRunsAtCurrentTime(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Schedule(5*Millisecond, func() {
		k.Schedule(0, func() {
			ran = true
			if k.Now() != 5*Millisecond {
				t.Errorf("zero-delay event at %v, want 5ms", k.Now())
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	id := k.Schedule(Millisecond, func() { ran = true })
	if !k.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if k.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if k.Executed() != 0 {
		t.Fatalf("Executed() = %d, want 0", k.Executed())
	}
}

func TestKernelCancelFromWithinEvent(t *testing.T) {
	k := NewKernel()
	ran := false
	var id EventID
	id = k.Schedule(2*Millisecond, func() { ran = true })
	k.Schedule(Millisecond, func() {
		if !k.Cancel(id) {
			t.Error("Cancel from handler failed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("event ran despite cancellation")
	}
}

func TestKernelRunUntilLeavesFutureEvents(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(Millisecond, func() { got = append(got, 1) })
	k.Schedule(10*Millisecond, func() { got = append(got, 2) })
	if err := k.RunUntil(5 * Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("got %v, want [1]", got)
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want both events", got)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i)*Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	if err := k.Run(); err != ErrHalted {
		t.Fatalf("Run = %v, want ErrHalted", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestKernelNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

func TestKernelScheduleFromHandler(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.Schedule(Microsecond, recurse)
		}
	}
	k.Schedule(0, recurse)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != 99*Microsecond {
		t.Fatalf("Now() = %v, want 99us", k.Now())
	}
}

// Property: for any set of delays, events fire in sorted order and the clock
// never goes backwards.
func TestKernelMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d)*Microsecond, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds() = %v", (2 * Second).Seconds())
	}
	if (3 * Millisecond).Millis() != 3.0 {
		t.Fatalf("Millis() = %v", (3 * Millisecond).Millis())
	}
	if (Second).Duration().Milliseconds() != 1000 {
		t.Fatalf("Duration() wrong")
	}
}

// TestReservedTiesAtItsReserve: an event filed by ScheduleReserved ties at
// its instant by the number its Reserve took, ahead of an event scheduled
// between the two calls. The reserved sequence is pending from its Reserve.
func TestReservedTiesAtItsReserve(t *testing.T) {
	k := NewKernel()
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	k.Schedule(Millisecond, note("first"))
	seq := k.Reserve()
	if k.Pending() != 2 || k.Seq() != seq {
		t.Fatalf("after Reserve: %d pending, Seq %d, want 2 and %d", k.Pending(), k.Seq(), seq)
	}
	k.Schedule(Millisecond, note("between"))
	k.ScheduleReserved(Millisecond, PriorityNormal, seq, note("reserved"))
	if k.Pending() != 3 || k.Seq() != seq+1 {
		t.Fatalf("after ScheduleReserved: %d pending, Seq %d, want 3 and %d", k.Pending(), k.Seq(), seq+1)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[first reserved between]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}

// TestSettleKeepsTheLedger: completions settled without a dispatch count in
// Events, not in Executed. One settled inside an event at an earlier instant
// leaves the clock alone; one an AtRest hook settles past the clock moves it
// there, as its own event would have, and the next schedule counts from it.
// A reservation is pending until it is settled.
func TestSettleKeepsTheLedger(t *testing.T) {
	k := NewKernel()
	var seq int64
	k.Schedule(2*Millisecond, func() {
		k.Settle(3, Millisecond)
		seq = k.Reserve()
	})
	k.AtRest(func(limit Time) {
		if seq != 0 {
			k.SettleReserved(seq, limit-Microsecond)
			seq = 0
		}
	})
	if err := k.RunUntil(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Executed() != 1 || k.Events() != 5 || k.Now() != 5*Millisecond-Microsecond || k.Pending() != 0 {
		t.Fatalf("after the rest: %d dispatches, %d events, now %v, %d pending; want 1, 5, %v and 0",
			k.Executed(), k.Events(), k.Now(), k.Pending(), 5*Millisecond-Microsecond)
	}
	var at Time
	k.Schedule(Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 6*Millisecond-Microsecond {
		t.Fatalf("an event scheduled 1ms after the settled clock ran at %v", at)
	}
}
