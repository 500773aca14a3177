package main

import (
	"math"
	"time"
)

// The box this benchmark runs on shares its cores and caches with other
// tenants, and its speed moves in stretches of minutes, too long for a median
// over one run to average away: whole runs of lan3_cons came out at 18 000 and
// at 28 600 txn/s within twenty minutes, and the spread of ten runs' raw
// medians, which the benchmark's driver requires to stay under 25 %, measured
// 3 % in a quiet hour and 28 % in a bad one. An arithmetic loop in the private
// caches hardly sees these stretches (it moved 10-20 % when the simulator
// moved 25-35 %); what slows the simulator is mostly contention for cache and
// memory.
// So the machine's speed is sampled right before and after every replication
// with three small kernels — arithmetic over 64 KB, independent random loads
// over 8 MB, and a dependent pointer chase over the same 8 MB — and each
// replication's throughput is divided by the geometric mean of their speeds
// relative to fixed reference speeds. The kernels are this file's code, not
// the simulator's: at any given state of the machine a change to the
// simulator moves the normalized number exactly as it moves the raw one; how
// closely the kernels' mix resembles the simulator's only decides how much of
// the machine's noise cancels. Measured over ten-seed sweeps in a moderately
// noisy hour, normalizing cut the spread of the run medians from 8.9 % to
// 3.5 % (range 17 % to 8 %) on lan3_cons and from 7.6 % to 3.9 % (range 24 %
// to 12 %) on agg1m_shed; no single kernel or pair did as well on both.
type speedometer struct {
	small []uint32 // 64 KB
	ring  []uint32 // 8 MB, one random cycle: ring[i] is the successor of i
	sink  uint32
}

// Reference speeds, in million steps per second: what the kernels reach on
// this box when it is undisturbed. They only fix the scale of the index.
const (
	refALU   = 500.0
	refLoad  = 75.0
	refChase = 16.0
)

func newSpeedometer() *speedometer {
	s := &speedometer{small: make([]uint32, 16<<10), ring: make([]uint32, 2<<20)}
	// Sattolo's algorithm: a uniformly random single cycle.
	for i := range s.ring {
		s.ring[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(s.ring) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		s.ring[i], s.ring[j] = s.ring[j], s.ring[i]
	}
	return s
}

// speed is one sample: each kernel's rate in million steps per second.
type speed struct{ ALU, Load, Chase float64 }

// index is the sample relative to the reference machine: 1 at reference
// speed, below 1 when the box is slow.
func (v speed) index() float64 {
	return math.Cbrt(v.ALU / refALU * v.Load / refLoad * v.Chase / refChase)
}

// sample runs the three kernels, about 20 ms in all.
func (s *speedometer) sample() speed {
	const aluSteps, loadSteps, chaseSteps = 2_000_000, 400_000, 100_000
	mops := func(steps int, t0 time.Time) float64 { return float64(steps) / time.Since(t0).Seconds() / 1e6 }
	var v speed
	x := uint64(88172645463325252)

	t0 := time.Now()
	mask := uint64(len(s.small) - 1)
	for i := 0; i < aluSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.small[x&mask] += uint32(x)
	}
	v.ALU = mops(aluSteps, t0)

	t0 = time.Now()
	mask = uint64(len(s.ring) - 1)
	sum := uint32(0)
	for i := 0; i < loadSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += s.ring[x&mask]
	}
	v.Load = mops(loadSteps, t0)

	t0 = time.Now()
	idx := s.sink % uint32(len(s.ring))
	for i := 0; i < chaseSteps; i++ {
		idx = s.ring[idx]
	}
	v.Chase = mops(chaseSteps, t0)
	s.sink = idx + sum&1
	return v
}
