// Package metrics provides the statistics containers used to report
// experiment results in the same form as the paper: latency summaries and
// distributions (ECDF, Q-Q), throughput in transactions-per-minute, abort
// rate breakdowns per transaction class, and resource-usage time series.
package metrics

import (
	"fmt"
	"math"
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

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
	s.sumSq += v * v
}

// Merge adds every observation of o to s, in o's sorted order — exactly what
// adding o.Values() one by one does (same floating-point accumulation order,
// so Mean, StdDev and CI95 come out bit-identical), without the copy.
func (s *Sample) Merge(o *Sample) {
	o.ensureSorted()
	for _, v := range o.values {
		s.sum += v
		s.sumSq += v * v
	}
	s.values = append(s.values, o.values...)
	s.sorted = false
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

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.values[len(s.values)-1]
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

// ECDFPoints returns up to n (x, F(x)) points spanning the sample, suitable
// for plotting the distribution as in the paper's Figure 7.
func (s *Sample) ECDFPoints(n int) []Point {
	if len(s.values) == 0 || n <= 0 {
		return nil
	}
	s.ensureSorted()
	if n > len(s.values) {
		n = len(s.values)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(s.values) - 1) / max(n-1, 1)
		pts = append(pts, Point{
			X: s.values[idx],
			Y: float64(idx+1) / float64(len(s.values)),
		})
	}
	return pts
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	out := make([]float64, len(s.values))
	copy(out, s.values)
	return out
}

// Point is an (x, y) pair for plotted series.
type Point struct{ X, Y float64 }

// QQ returns n quantile-quantile pairs comparing two samples, as used by the
// paper's Figure 4 model validation: X holds quantiles of a (simulation) and
// Y quantiles of b (real system). Points near the diagonal indicate the
// distributions agree.
func QQ(a, b *Sample, n int) []Point {
	if a.N() == 0 || b.N() == 0 || n <= 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		pts = append(pts, Point{X: a.Quantile(q), Y: b.Quantile(q)})
	}
	return pts
}

// Counter is a labelled monotonically increasing count.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Addn adds delta.
func (c *Counter) Addn(delta int64) { c.n += delta }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Rate computes a per-class numerator/denominator ratio as a percentage,
// returning 0 when the denominator is zero.
func Rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// FormatPct renders a percentage with two decimals, as in the paper's
// tables.
func FormatPct(p float64) string { return fmt.Sprintf("%.2f", p) }
