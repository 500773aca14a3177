package sim

import (
	"errors"
	"math/rand"
	"time"
)

type kernel struct{ now int64 }

func (k *kernel) Schedule(d int64, fn func()) {}

type timer struct{}

func (t *timer) Arm(d int64) {}

func clocks() time.Duration {
	t := time.Now()              // want `time.Now in deterministic package`
	time.Sleep(time.Millisecond) // want `time.Sleep in deterministic package`
	_ = time.Since(t)            // want `time.Since in deterministic package`
	d := 5 * time.Millisecond    // duration arithmetic is fine
	//lint:simdeterminism-ok startup banner timestamp never feeds the simulation
	_ = time.Now()
	_ = time.Now() //lint:simdeterminism-ok a trailing waiver covers its own line only
	_ = time.Now() // want `time.Now in deterministic package`
	//lint:simdeterminism-okay a different token waives nothing
	time.Sleep(time.Millisecond) // want `time.Sleep in deterministic package`
	return d
}

func parseFrame(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, errors.New("short")
	}
	return int(b[0]), nil
}

// recv drops a malformed frame without counting it: statcount runs here too.
func recv(b []byte) int {
	n, err := parseFrame(b) // want `error path of parseFrame drops the message silently`
	if err != nil {
		return 0
	}
	return n
}

func randoms(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // explicit seeding is fine
	n := r.Intn(10)                     // method on seeded generator is fine
	n += rand.Intn(10)                  // want `global math/rand source \(rand.Intn\)`
	rand.Shuffle(3, func(i, j int) {})  // want `global math/rand source \(rand.Shuffle\)`
	return n
}

func spawn() {
	go func() {}() // want `raw goroutine in deterministic package`
}

type cache struct {
	entries map[int]int
	onEvict func(int)
}

// evict hands every entry to an upcall the rule cannot see into: the
// consumer observes the map's iteration order. A plain func value is not a
// field, and stays unreported.
func (c *cache) evict(fn func(int)) {
	for key := range c.entries {
		c.onEvict(key) // want `call through func field onEvict inside range over map`
	}
	for key := range c.entries {
		fn(key)
	}
}

func mapRanges(k *kernel, tm *timer, m map[int]int, ch chan int) ([]int, int) {
	var keys []int
	sum := 0
	for key := range m {
		keys = append(keys, key) // collect idiom: fine
		sum += m[key]            // integer accumulation: fine
	}
	out := make(map[int]int, len(m))
	for key, v := range m {
		out[key] = v * 2 // keyed by loop key: fine
	}
	for key, v := range m {
		local := v * 2
		_ = local
		out[v] = key // want `order-sensitive write through outer state`
	}
	var last int
	for _, v := range m {
		last = v // want `order-sensitive write to "last"`
	}
	for _, v := range m {
		ch <- v // want `channel send inside range over map`
	}
	for key := range m {
		k.Schedule(int64(key), func() {}) // want `Schedule call inside range over map`
	}
	for key := range m {
		tm.Arm(int64(key)) // want `Arm call inside range over map`
	}
	for key := range m {
		delete(m, key) // delete by loop key: fine
	}
	for key := range m {
		delete(out, key+1) // want `delete with a non-loop key`
	}
	var total float64
	for _, v := range m {
		total += float64(v) // want `order-sensitive write to "total"`
	}
	for _, v := range m {
		last = v //lint:simdeterminism-ok single-element map by construction
	}
	_ = total
	_ = last
	return keys, sum
}
