package metrics

import (
	"math"
	"slices"
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
	if s.Quantile(0) != 2 || s.Quantile(1) != 9 {
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

// TestSampleMergeVariadicMatchesOneAtATime pins a many-operand Merge to the
// same operands merged one at a time, bit for bit, and holds its growth to
// one allocation.
func TestSampleMergeVariadicMatchesOneAtATime(t *testing.T) {
	fill := func(s *Sample, n int, seed float64) {
		for i := 0; i < n; i++ {
			s.Add(math.Mod(seed*float64(i+1)*math.Pi, 97) / 7)
		}
	}
	sizes := []int{7, 0, 1000, 1, 333}
	ops1 := make([]*Sample, len(sizes))
	ops2 := make([]*Sample, len(sizes))
	for i, n := range sizes {
		ops1[i], ops2[i] = &Sample{}, &Sample{}
		fill(ops1[i], n, 1.1+float64(i))
		fill(ops2[i], n, 1.1+float64(i))
	}
	var oneByOne, variadic Sample
	fill(&oneByOne, 50, 0.3)
	fill(&variadic, 50, 0.3)
	for _, o := range ops1 {
		oneByOne.Merge(o)
	}
	variadic.Merge(ops2...)
	if variadic.N() != oneByOne.N() || variadic.Mean() != oneByOne.Mean() || variadic.StdDev() != oneByOne.StdDev() {
		t.Fatalf("n/mean/stddev %d %v %v, one at a time %d %v %v",
			variadic.N(), variadic.Mean(), variadic.StdDev(), oneByOne.N(), oneByOne.Mean(), oneByOne.StdDev())
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if variadic.Quantile(q) != oneByOne.Quantile(q) {
			t.Fatalf("q%.2f = %v, one at a time %v", q, variadic.Quantile(q), oneByOne.Quantile(q))
		}
	}
	if !slices.Equal(variadic.Values(), oneByOne.Values()) {
		t.Fatal("Values differ from the one-at-a-time merge")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		var dst Sample
		dst.Add(1)
		dst.Merge(ops2...)
	}); allocs != 2 {
		t.Fatalf("an Add and a growing Merge allocate %v times, want 2", allocs)
	}
}

// TestSampleAddGrowsByDoubling: a sample of n values grows its storage at
// most log2(n)+1 times (Go's own ×1.25 growth past 256 values takes 27 at
// 2^16). It counts capacity changes, not allocations: a race build's
// slices.Grow allocates a second time.
func TestSampleAddGrowsByDoubling(t *testing.T) {
	var s Sample
	grows := 0
	for i := 0; i < 1<<16; i++ {
		c := cap(s.values)
		s.Add(float64(i))
		if cap(s.values) != c {
			grows++
		}
	}
	if grows > 17 {
		t.Fatalf("2^16 Adds grow the storage %d times, want at most 17", grows)
	}
}

// TestSampleHandover pins the storage hand-off between two samples: the
// giver reads empty, the taker starts empty on the giver's array and grows
// only past its capacity, and Adopt refuses a sample with observations.
func TestSampleHandover(t *testing.T) {
	var a, b Sample
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
	}
	a.Quantile(0.5) // sorted
	vs := a.Handover()
	if a.N() != 0 || a.Mean() != 0 || a.StdDev() != 0 || len(vs) != 0 || cap(vs) < 100 {
		t.Fatalf("after Handover: N=%d mean=%v stddev=%v, storage %d/%d", a.N(), a.Mean(), a.StdDev(), len(vs), cap(vs))
	}
	b.Adopt(vs)
	if b.N() != 0 || b.Mean() != 0 {
		t.Fatalf("adopted sample: N=%d mean=%v", b.N(), b.Mean())
	}
	for _, v := range []float64{3, 1, 2} {
		b.Add(v)
	}
	if &b.values[0] != &vs[:1][0] || b.Mean() != 2 || b.Quantile(0) != 1 || b.Quantile(1) != 3 {
		t.Fatalf("adopted sample: values %v off the handed-over array, mean %v", b.values, b.Mean())
	}
	if n := testing.AllocsPerRun(10, func() { b.Add(4) }); n != 0 {
		t.Fatalf("an Add within the adopted capacity allocates %v times", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Adopt on a sample with observations did not panic")
		}
	}()
	b.Adopt(nil)
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Quantile(0.5) != 0 || s.Quantile(0) != 0 || s.Quantile(1) != 0 {
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

// TestWilson95 pins the interval at the edges a failure-rate sweep reports:
// none failed, all failed, and a rate inside, against values computed
// independently, and its mirror symmetry k ↔ n−k.
func TestWilson95(t *testing.T) {
	for _, c := range []struct {
		k, n   int
		lo, hi float64
	}{
		{3000, 3000, 99.872110, 100},
		{0, 20, 0, 16.113013},
		{17, 3000, 0.354103, 0.905671},
		{10, 3000, 0.181161, 0.612542},
	} {
		lo, hi := Wilson95(c.k, c.n)
		if math.Abs(lo-c.lo) > 1e-5 || math.Abs(hi-c.hi) > 1e-5 {
			t.Errorf("Wilson95(%d, %d) = [%v, %v], want [%v, %v]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
		mlo, mhi := Wilson95(c.n-c.k, c.n)
		if math.Abs(lo-(100-mhi)) > 1e-9 || math.Abs(hi-(100-mlo)) > 1e-9 {
			t.Errorf("Wilson95(%d, %d) = [%v, %v] is not the mirror of [%v, %v]", c.k, c.n, lo, hi, mlo, mhi)
		}
	}
}
