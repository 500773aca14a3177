package sim

import "sort"

// Empirical is an empirical distribution built from observed samples,
// sampled by inverse-transform with linear interpolation between order
// statistics. The paper drives the simulated database server with empirical
// per-transaction-class CPU time distributions obtained by profiling
// PostgreSQL; this type is the container for such calibration data.
type Empirical struct {
	sorted []float64
}

// NewEmpirical builds a distribution from samples. It copies and sorts the
// input. It panics if samples is empty: an empty calibration table is a
// configuration bug the caller must fix.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("sim: empirical distribution needs at least one sample")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &Empirical{sorted: s}
}

// Sample draws a value using g.
func (e *Empirical) Sample(g *RNG) float64 {
	return e.Quantile(g.Float64())
}

// SampleDur draws a duration, interpreting the samples as nanoseconds.
func (e *Empirical) SampleDur(g *RNG) Time {
	v := e.Sample(g)
	if v < 0 {
		return 0
	}
	return Time(v)
}

// Quantile returns the q-th quantile (q in [0,1]) with linear interpolation.
func (e *Empirical) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0]
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[i]*(1-frac) + e.sorted[i+1]*frac
}

// Mean returns the sample mean.
func (e *Empirical) Mean() float64 {
	sum := 0.0
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Min and Max return the extreme samples.
func (e *Empirical) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *Empirical) Max() float64 { return e.sorted[len(e.sorted)-1] }
