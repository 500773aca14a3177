// Package sim provides a deterministic discrete-event simulation kernel
// modeled after the Scalable Simulation Framework (SSF) used by the paper.
//
// All simulated components schedule closures on a Kernel; the kernel runs
// them in non-decreasing timestamp order. Determinism is guaranteed by a
// total order on events (time, priority, insertion sequence) and by drawing
// all randomness from seeded RNG streams (see rng.go).
//
// The kernel sorts only what is due soon. A 4-ary heap holds the events
// due before the horizon — a ~1 ms tick boundary at or just past the
// current time — and a two-level calendar holds the rest unsorted, in
// ~1 ms buckets for the next ~4 s and ~4 s slots for the next ~73 min
// (anything later stays in the heap). The horizon invariant: every event
// in the calendar is due at or after the horizon. So whenever the heap's
// minimum lies before the horizon it is the earliest pending event; when it
// does not, the earliest occupied bucket spills into the heap and the
// horizon moves past it. The heap compares every candidate by the same
// total order, so the dispatch sequence is exactly that of one heap holding
// everything — the calendar changes when an event is sorted, never where.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated instant or duration expressed in nanoseconds.
//
// It deliberately mirrors time.Duration so that protocol code written
// against the runtime abstraction can be moved between simulated and native
// execution without unit conversions.
type Time int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Duration converts t to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a simulated Time.
func FromDuration(d time.Duration) Time { return Time(d) }

// FromSeconds converts seconds to a simulated Time, rounding to nanoseconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats t using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// GoString implements fmt.GoStringer for readable test failures.
func (t Time) GoString() string { return fmt.Sprintf("sim.Time(%s)", t.String()) }
