// Package metrics provides the statistics containers used to report
// experiment results in the same form as the paper: latency summaries and
// distributions (ECDF, Q-Q), throughput in transactions-per-minute, abort
// rate breakdowns per transaction class, and resource-usage time series.
package metrics

import (
	"math"
	"slices"
	"sort"
)

// Sample accumulates scalar observations and answers summary queries.
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
	sum    float64
	sumSq  float64
}

// Add records one observation. The observations grow by doubling, so a
// sample of n values has copied fewer than n of them.
func (s *Sample) Add(v float64) {
	if len(s.values) == cap(s.values) {
		s.values = slices.Grow(s.values, len(s.values))
	}
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
	s.sumSq += v * v
}

// Merge adds every observation of each operand to s: operand by operand in
// argument order, each in its sorted order — exactly what adding each
// o.Values() one by one does (the same floating-point accumulation order, so
// Mean, StdDev and CI95 come out bit-identical), without the copies. s grows
// at most once, to the exact total.
func (s *Sample) Merge(os ...*Sample) {
	n := len(s.values)
	for _, o := range os {
		n += len(o.values)
	}
	if n > cap(s.values) {
		s.values = append(make([]float64, 0, n), s.values...)
	}
	for _, o := range os {
		o.ensureSorted()
		for _, v := range o.values {
			s.sum += v
			s.sumSq += v * v
		}
		s.values = append(s.values, o.values...)
	}
	s.sorted = false
}

// Handover empties the sample and returns the storage its observations were
// in, at length 0, for a sample that comes after this one (Adopt).
func (s *Sample) Handover() []float64 {
	vs := s.values[:0]
	*s = Sample{}
	return vs
}

// Adopt starts an empty sample on vs's backing array: what a Handover
// returned. It panics on a sample that holds observations.
func (s *Sample) Adopt(vs []float64) {
	if len(s.values) != 0 {
		panic("metrics: Sample.Adopt on a sample that is not empty")
	}
	s.values = vs[:0]
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 when
// fewer than two observations exist.
func (s *Sample) StdDev() float64 {
	n := float64(len(s.values))
	if n < 2 {
		return 0
	}
	v := (s.sumSq - s.sum*s.sum/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}

// tCrit95 holds two-sided 95% Student-t critical values indexed by degrees
// of freedom minus one (tCrit95[0] is df=1).
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df degrees
// of freedom, falling back to the normal approximation beyond the table.
func TCrit95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.960
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// (Student-t), or 0 when fewer than two observations exist.
func (s *Sample) CI95() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	return TCrit95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile with linear interpolation, or 0 for an
// empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	return s.values[i]*(1-frac) + s.values[i+1]*frac
}

// ECDF returns the empirical CDF evaluated at x: the fraction of
// observations <= x.
func (s *Sample) ECDF(x float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.values, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.values))
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Rate computes a per-class numerator/denominator ratio as a percentage,
// returning 0 when the denominator is zero.
func Rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Wilson95 is the Wilson score 95% interval of a rate of k in n, as
// percentages; it stays inside [0, 100] and is not empty at k = 0 or n.
func Wilson95(k, n int) (lo, hi float64) {
	const z = 1.96
	p, nf := float64(k)/float64(n), float64(n)
	centre := (p + z*z/(2*nf)) / (1 + z*z/nf)
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / (1 + z*z/nf)
	return 100 * max(0, centre-half), 100 * min(1, centre+half)
}
