package db

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestStorageCompletionTrace pins the disk's completion order on one device
// with eight slots and a one-second sector: a 22-sector request behind a
// one-sector one, a second request issued while the first is still queued, a
// request issued from inside a done() callback, and a slowdown to three
// times the sector time and back while sectors are in flight, in the middle
// of the run and on an idle device, so that sectors started after the
// recovery finish before ones started during it.
// Every done() records (Now, request); the device's counters and the
// kernel's dispatch count follow.
// The expected values are literals: any change to how sectors are started,
// queued or completed shows here.
//
// Request 4 is the queue-jump of Storage's comment: it is issued from
// request 1's done(), and its first sector takes the slot request 1 just
// freed although request 2's sectors were waiting for it.
func TestStorageCompletionTrace(t *testing.T) {
	k := sim.NewKernel()
	st := NewStorage(k, StorageConfig{MaxConcurrent: 8, SectorSize: 4096, ThroughputBps: 8 * 4096}, sim.NewRNG(1))
	var got []string
	done := func(req int, then func()) func() {
		return func() {
			got = append(got, fmt.Sprintf("%v:%d", k.Now(), req))
			if then != nil {
				then()
			}
		}
	}
	st.WriteSectors(1, done(1, func() {
		st.WriteSectors(2, done(4, nil))
	}))
	st.WriteSectors(22, done(2, nil))
	k.Schedule(sim.Second/2, func() {
		st.ReadSectors(3, done(3, func() {
			k.Schedule(0, func() {}) // an event between two sector starts at one instant
			st.Write(3*4096, done(5, nil))
		}))
	})
	k.Schedule(3*sim.Second/2, func() { st.SetSlowdown(3) })
	k.Schedule(5*sim.Second/2, func() { st.SetSlowdown(1) })
	k.Schedule(7*sim.Second/2, func() { st.WriteSectors(2, done(6, nil)) })
	// On an idle device: a slow sector, then a fast one that overtakes it.
	k.Schedule(10*sim.Second, func() {
		st.SetSlowdown(3)
		st.WriteSectors(1, done(7, nil))
		st.WriteSectors(2, done(8, nil))
	})
	k.Schedule(21*sim.Second/2, func() {
		st.SetSlowdown(1)
		st.WriteSectors(1, done(9, nil))
	})
	k.Schedule(11*sim.Second, func() { st.WriteSectors(1, done(10, nil)) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"1s:1", "5s:2", "6s:3", "6s:4", "6s:6", "7s:5", "11.5s:9", "12s:10", "13s:7", "13s:8"}
	if !slices.Equal(got, want) {
		t.Fatalf("completions %q, want %q", got, want)
	}
	if k.Executed() != 46 {
		t.Fatalf("%d kernel dispatches", k.Executed())
	}
	if end := k.Now(); st.Sectors() != 38 || st.MaxQueueLen() != 19 || fmt.Sprintf("%.4f", st.Utilization(end)) != "57.6923" {
		t.Fatalf("at %v: %d sectors, max queue %d, utilization %.4f", end, st.Sectors(), st.MaxQueueLen(), st.Utilization(end))
	}
}
