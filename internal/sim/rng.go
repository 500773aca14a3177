package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random stream. Every stochastic decision in
// the simulator draws from an RNG derived from the run seed, so a run is a
// pure function of its configuration. Streams are forked by label so that
// adding a consumer does not perturb the draws seen by existing consumers.
type RNG struct {
	r    *rand.Rand
	seed int64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Fork derives an independent stream identified by label. Forking the same
// (seed, label) pair always yields the same stream.
func (g *RNG) Fork(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	derived := g.seed ^ int64(h.Sum64())
	// Avoid the degenerate all-zero seed.
	if derived == 0 {
		derived = int64(h.Sum64()) | 1
	}
	return NewRNG(derived)
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// IntRange returns a uniform draw in [lo, hi] inclusive.
func (g *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Exp returns an exponential draw with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// LogNormal returns a draw from a log-normal distribution parameterized by
// the mean and standard deviation of the underlying normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// ExpDur returns an exponential duration with the given mean, never
// negative.
func (g *RNG) ExpDur(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(g.r.ExpFloat64() * float64(mean))
}

// UniformDur returns a uniform duration in [lo, hi].
func (g *RNG) UniformDur(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(g.r.Int63n(int64(hi-lo)+1))
}

// Poisson returns a draw from a Poisson distribution with the given mean.
// Small means use Knuth's product-of-uniforms inversion; large means use
// Hörmann's PTRS transformed-rejection sampler, so the cost per draw is
// O(1) regardless of the mean — the property the aggregate client tier
// depends on when one draw covers thousands of simulated users. Both
// branches consume only this stream, so runs remain reproducible.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= g.r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann 1993, "The transformed rejection method for
	// generating Poisson random variables").
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := math.Log(mean)
	for {
		u := g.r.Float64() - 0.5
		v := g.r.Float64()
		us := 0.5 - math.Abs(u)
		k := int(math.Floor((2*a/us+b)*u + mean + 0.43))
		if us >= 0.07 && v <= vr {
			return k
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(float64(k) + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= float64(k)*logMean-mean-lg {
			return k
		}
	}
}

// Binomial returns a draw from a Binomial(n, p) distribution. Small means
// use CDF-inversion (O(n·p) per draw); large means use the clamped normal
// approximation, whose error is negligible once n·p·(1−p) is in the
// hundreds. The aggregate client tier uses this to thin its warmup pool —
// each emulated user fires its first transaction uniformly in the think
// interval, exactly like an individual client's de-synchronized start.
func (g *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		// Keep p small so the inversion walk stays short and stable.
		return n - g.Binomial(n, 1-p)
	}
	np := float64(n) * p
	if np < 500 {
		q := 1 - p
		r := p / q
		f := math.Exp(float64(n) * math.Log(q)) // pmf(0)
		u := g.r.Float64()
		acc := f
		k := 0
		for u > acc && k < n {
			f *= r * float64(n-k) / float64(k+1)
			k++
			acc += f
		}
		return k
	}
	d := math.Round(g.r.NormFloat64()*math.Sqrt(np*(1-p)) + np)
	if d < 0 {
		return 0
	}
	if d > float64(n) {
		return n
	}
	return int(d)
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// NURand implements the TPC-C non-uniform random function NURand(A, x, y)
// with a fixed C constant derived from the stream seed, as specified in
// TPC-C clause 2.1.6.
func (g *RNG) NURand(a, x, y int) int {
	c := int(uint64(g.seed) % uint64(a+1))
	return (((g.IntRange(0, a) | g.IntRange(x, y)) + c) % (y - x + 1)) + x
}
