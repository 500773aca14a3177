package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	// Sample (n-1) stddev of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev()-want) > 1e-9 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatal("min/max wrong")
	}
}

// TestSampleMergeMatchesAddLoop pins Merge to the loop it replaces — adding
// the source's Values() one by one — with exact (bit-level) equality on every
// summary, since experiment tables print means and CIs derived from them.
func TestSampleMergeMatchesAddLoop(t *testing.T) {
	// Irrational-ish values in unsorted order, so accumulation order shows.
	fill := func(s *Sample, n int, seed float64) {
		for i := 0; i < n; i++ {
			s.Add(math.Mod(seed*float64(i+1)*math.Pi, 97) / 7)
		}
	}
	for _, sizes := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {40, 1}, {3, 1000}, {500, 499}} {
		var viaLoop, viaMerge, src1, src2 Sample
		fill(&viaLoop, sizes[0], 1.3)
		fill(&viaMerge, sizes[0], 1.3)
		fill(&src1, sizes[1], 2.7)
		fill(&src2, sizes[1], 2.7)
		for _, v := range src1.Values() {
			viaLoop.Add(v)
		}
		viaMerge.Merge(&src2)
		if viaMerge.N() != viaLoop.N() || viaMerge.Mean() != viaLoop.Mean() ||
			viaMerge.StdDev() != viaLoop.StdDev() || viaMerge.CI95() != viaLoop.CI95() {
			t.Fatalf("sizes %v: n/mean/stddev/ci %d %v %v %v, loop gives %d %v %v %v", sizes,
				viaMerge.N(), viaMerge.Mean(), viaMerge.StdDev(), viaMerge.CI95(),
				viaLoop.N(), viaLoop.Mean(), viaLoop.StdDev(), viaLoop.CI95())
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
			if viaMerge.Quantile(q) != viaLoop.Quantile(q) {
				t.Fatalf("sizes %v: q%.2f = %v, loop gives %v", sizes, q, viaMerge.Quantile(q), viaLoop.Quantile(q))
			}
		}
		if src2.N() != sizes[1] || src2.Mean() != src1.Mean() {
			t.Fatalf("sizes %v: Merge changed its source", sizes)
		}
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleECDF(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := s.ECDF(c.x); got != c.want {
			t.Fatalf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	var s Sample
	for _, v := range []float64{9, 1, 5, 5, 3, 7, 2} {
		s.Add(v)
	}
	f := func(a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRate(t *testing.T) {
	if Rate(1, 4) != 25 {
		t.Fatalf("Rate = %v", Rate(1, 4))
	}
	if Rate(1, 0) != 0 {
		t.Fatal("Rate with zero denominator must be 0")
	}
}
