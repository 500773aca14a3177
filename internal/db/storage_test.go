package db

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestStorageCompletionTrace pins the disk's completion order on the
// device's eight slots, every instant stated in sector latencies (L): a
// 22-sector request behind a one-sector one, a second request issued while
// the first is still queued, a request issued from inside a done() callback,
// and a slowdown to three times the sector time and back while sectors are
// in flight, in the middle of the run and on an idle device, so that sectors
// started after the recovery finish before ones started during it.
// Every done() records (Now in L, request); the device's counters and the
// event count follow: the kernel's Events, its dispatches plus the sectors
// settled under another sector's event, is one event per sector and per
// scheduled call, as when every sector had an event of its own.
// The expected values are literals: any change to how sectors are started,
// queued or completed shows here.
//
// Request 4 is the queue-jump of Storage's comment: it is issued from
// request 1's done(), and its first sector takes the slot request 1 just
// freed although request 2's sectors were waiting for it.
func TestStorageCompletionTrace(t *testing.T) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{}, nil)
	at := func(halves sim.Time) sim.Time { return halves * sectorLatency / 2 }
	var got []string
	done := func(req int, then func()) func() {
		return func() {
			got = append(got, fmt.Sprintf("%.1fL:%d", float64(k.Now())/float64(sectorLatency), req))
			if then != nil {
				then()
			}
		}
	}
	st.WriteSectors(1, done(1, func() {
		st.WriteSectors(2, done(4, nil))
	}))
	st.WriteSectors(22, done(2, nil))
	k.Schedule(at(1), func() {
		st.ReadSectors(3, done(3, func() {
			k.Schedule(0, func() {}) // an event between two sector starts at one instant
			st.WriteSectors(3, done(5, nil))
		}))
	})
	k.Schedule(at(3), func() { st.SetSlowdown(3) })
	k.Schedule(at(5), func() { st.SetSlowdown(1) })
	k.Schedule(at(7), func() { st.WriteSectors(2, done(6, nil)) })
	// On an idle device: a slow sector, then a fast one that overtakes it.
	k.Schedule(at(20), func() {
		st.SetSlowdown(3)
		st.WriteSectors(1, done(7, nil))
		st.WriteSectors(2, done(8, nil))
	})
	k.Schedule(at(21), func() {
		st.SetSlowdown(1)
		st.WriteSectors(1, done(9, nil))
	})
	k.Schedule(at(22), func() { st.WriteSectors(1, done(10, nil)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1.0L:1", "5.0L:2", "6.0L:3", "6.0L:4", "6.0L:6", "7.0L:5", "11.5L:9", "12.0L:10", "13.0L:7", "13.0L:8"}
	if !slices.Equal(got, want) {
		t.Fatalf("completions %q, want %q", got, want)
	}
	if k.Events() != 46 || k.Executed() != 16 {
		t.Fatalf("%d events in %d kernel dispatches, want 46 in 16", k.Events(), k.Executed())
	}
	if end := k.Now(); st.Sectors() != 38 || st.MaxQueueLen() != 19 || fmt.Sprintf("%.4f", st.Utilization(end)) != "57.6923" {
		t.Fatalf("at %v: %d sectors, max queue %d, utilization %.4f", end, st.Sectors(), st.MaxQueueLen(), st.Utilization(end))
	}
}

// TestStorageBatchEndsAtASchedule: a sector joins the batch started last
// only while nothing was scheduled since. An event at the batch's instant,
// scheduled between two one-sector writes, completes between them.
func TestStorageBatchEndsAtASchedule(t *testing.T) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{}, nil)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	st.WriteSectors(1, note("first"))
	k.Schedule(sectorLatency, note("between"))
	st.WriteSectors(1, note("second"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[first between second]"; fmt.Sprint(got) != want || k.Events() != 3 || k.Executed() != 3 {
		t.Fatalf("order %v, %d events in %d dispatches, want %s and 3 in 3", got, k.Events(), k.Executed(), want)
	}
}

// TestStorageBatchRunsBeforeAnUrgentEvent pins the one rule a shared batch
// event changes: a PriorityHigh event that a sector's done() schedules at
// delay 0 runs after the rest of the batch, where with an event per sector
// it would have run before the next sector.
func TestStorageBatchRunsBeforeAnUrgentEvent(t *testing.T) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{}, nil)
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	st.WriteSectors(1, func() {
		note("first")()
		k.SchedulePri(0, sim.PriorityHigh, note("urgent"))
	})
	st.WriteSectors(1, note("second"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "[first second urgent]"; fmt.Sprint(got) != want || k.Events() != 3 || k.Executed() != 2 {
		t.Fatalf("order %v, %d events in %d dispatches, want %s and 3 in 2", got, k.Events(), k.Executed(), want)
	}
}
