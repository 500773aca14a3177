package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGForkIsStableAndIndependent(t *testing.T) {
	base := NewRNG(7)
	f1 := base.Fork("clients")
	f2 := NewRNG(7).Fork("clients")
	for i := 0; i < 100; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("fork with same label not reproducible")
		}
	}
	// Different labels must give different streams (overwhelmingly likely).
	g1 := base.Fork("a")
	g2 := base.Fork("b")
	same := true
	for i := 0; i < 16; i++ {
		if g1.Float64() != g2.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forks with different labels produced identical streams")
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.ExpDur(5 * Second).Seconds()
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("ExpDur mean = %vs, want ~5s", mean)
	}
}

func TestRNGIntRangeBounds(t *testing.T) {
	g := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := g.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("IntRange never produced %d", v)
		}
	}
}

func TestRNGExpDurNonNegative(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if d := g.ExpDur(10 * Millisecond); d < 0 {
			t.Fatal("negative duration")
		}
	}
	if g.ExpDur(0) != 0 {
		t.Fatal("ExpDur(0) should be 0")
	}
}

func TestRNGNURandInBounds(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := g.NURand(1023, 1, 3000)
		if v < 1 || v > 3000 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
}

func TestRNGUniformDurProperty(t *testing.T) {
	f := func(seed int64, a, b uint32) bool {
		g := NewRNG(seed)
		lo, hi := Time(a), Time(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		d := g.UniformDur(lo, hi)
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRNGPoissonMoments checks both samplers — Knuth inversion below mean
// 30 and PTRS above — against the Poisson identities mean = variance = λ.
func TestRNGPoissonMoments(t *testing.T) {
	for _, mean := range []float64{0.2, 5, 50, 500} {
		g := NewRNG(17)
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(g.Poisson(mean))
			if v < 0 {
				t.Fatalf("Poisson(%v) returned negative %v", mean, v)
			}
			sum += v
			sumSq += v * v
		}
		m := sum / n
		v := sumSq/n - m*m
		if relErr := math.Abs(m-mean) / mean; relErr > 0.02 {
			t.Fatalf("Poisson(%v) sample mean %v (rel err %v)", mean, m, relErr)
		}
		if relErr := math.Abs(v-mean) / mean; relErr > 0.05 {
			t.Fatalf("Poisson(%v) sample variance %v (rel err %v)", mean, v, relErr)
		}
	}
	if NewRNG(1).Poisson(0) != 0 || NewRNG(1).Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

// TestRNGBinomialMoments checks the inversion walk, the symmetry branch,
// and the large-mean normal approximation against mean np and variance
// np(1-p), plus the degenerate edges.
func TestRNGBinomialMoments(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{100, 0.3},     // inversion
		{50, 0.9},      // symmetry branch
		{100000, 0.02}, // normal approximation (np = 2000)
	} {
		g := NewRNG(23)
		const reps = 50000
		var sum, sumSq float64
		for i := 0; i < reps; i++ {
			v := g.Binomial(tc.n, tc.p)
			if v < 0 || v > tc.n {
				t.Fatalf("Binomial(%d, %v) out of range: %d", tc.n, tc.p, v)
			}
			f := float64(v)
			sum += f
			sumSq += f * f
		}
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		m := sum / reps
		v := sumSq/reps - m*m
		if relErr := math.Abs(m-wantMean) / wantMean; relErr > 0.02 {
			t.Fatalf("Binomial(%d, %v) sample mean %v, want ~%v", tc.n, tc.p, m, wantMean)
		}
		if relErr := math.Abs(v-wantVar) / wantVar; relErr > 0.05 {
			t.Fatalf("Binomial(%d, %v) sample variance %v, want ~%v", tc.n, tc.p, v, wantVar)
		}
	}
	g := NewRNG(1)
	if g.Binomial(10, 0) != 0 || g.Binomial(0, 0.5) != 0 || g.Binomial(-1, 0.5) != 0 {
		t.Fatal("degenerate Binomial must be 0")
	}
	if g.Binomial(10, 1) != 10 || g.Binomial(10, 1.5) != 10 {
		t.Fatal("Binomial with p >= 1 must be n")
	}
}

func TestEmpiricalQuantiles(t *testing.T) {
	e := NewEmpirical([]float64{10, 20, 30, 40, 50})
	if e.Quantile(0) != 10 {
		t.Fatalf("q0 = %v", e.Quantile(0))
	}
	if e.Quantile(1) != 50 {
		t.Fatalf("q1 = %v", e.Quantile(1))
	}
	if e.Quantile(0.5) != 30 {
		t.Fatalf("median = %v", e.Quantile(0.5))
	}
	if e.Quantile(0.25) != 20 {
		t.Fatalf("q25 = %v", e.Quantile(0.25))
	}
	if e.Mean() != 30 {
		t.Fatalf("mean = %v", e.Mean())
	}
	if e.Min() != 10 || e.Max() != 50 {
		t.Fatal("min/max wrong")
	}
}

func TestEmpiricalSampleWithinRange(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := e.Sample(g)
		if v < 1 || v > 9 {
			t.Fatalf("sample out of range: %v", v)
		}
	}
}

func TestEmpiricalSingleSample(t *testing.T) {
	e := NewEmpirical([]float64{7})
	g := NewRNG(1)
	for i := 0; i < 10; i++ {
		if e.Sample(g) != 7 {
			t.Fatal("single-sample distribution must be constant")
		}
	}
}

func TestEmpiricalEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty samples")
		}
	}()
	NewEmpirical(nil)
}

// Property: quantile is monotone in q.
func TestEmpiricalMonotoneProperty(t *testing.T) {
	e := NewEmpirical([]float64{5, 1, 8, 2, 2, 9, 4})
	f := func(a, b float64) bool {
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return e.Quantile(qa) <= e.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
