package sim

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// mixedDraw makes the i-th draw of a stream that touches every RNG method a
// model uses, both Poisson samplers and both Binomial branches included.
func mixedDraw(g *RNG, i int) float64 {
	switch i % 12 {
	case 0:
		return g.Float64()
	case 1:
		return float64(g.Intn(1000))
	case 2:
		return float64(g.Int63n(1 << 40))
	case 3:
		return float64(g.ExpDur(5 * Millisecond))
	case 4:
		return g.LogNormal(3.4, 0.8)
	case 5:
		return float64(g.Poisson(5)) // Knuth
	case 6:
		return float64(g.Poisson(500)) // PTRS
	case 7:
		return float64(g.Binomial(100, 0.3)) // inversion
	case 8:
		return float64(g.Binomial(100000, 0.02)) // normal approximation
	case 9:
		p := []int{0, 1, 2, 3, 4, 5, 6, 7}
		g.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		return float64(p[0]<<9 | p[3]<<6 | p[5]<<3 | p[7])
	case 10:
		return float64(g.NURand(1023, 1, 3000))
	default:
		return float64(g.UniformDur(Millisecond, Second))
	}
}

// TestRNGShelvedSourceEqualsFresh releases a family whose sources have been
// drawn from, takes one back through a fork of a new family, and holds its
// stream to a source built by rand.NewSource over 10^4 mixed draws.
func TestRNGShelvedSourceEqualsFresh(t *testing.T) {
	old := NewRNG(3)
	released := []*rand.Rand{old.r}
	for _, label := range []string{"a", "b", "c"} {
		f := old.Fork(label)
		for i := range 500 {
			mixedDraw(f, i)
		}
		released = append(released, f.r)
	}
	old.Release()

	const seed = 77
	g := NewRNG(seed)
	shelved := g.Fork("stream")
	if !slices.Contains(released, g.r) || !slices.Contains(released, shelved.r) {
		t.Fatal("NewRNG and Fork did not take the released sources")
	}
	fresh := &RNG{r: rand.New(rand.NewSource(shelved.seed)), seed: shelved.seed}
	for i := range 10000 {
		if a, b := mixedDraw(shelved, i), mixedDraw(fresh, i); a != b {
			t.Fatalf("draw %d: shelved source %v, fresh source %v", i, a, b)
		}
	}
}

// TestReleasedRNGPanics: releasing any member ends the whole family, once;
// a draw from any member then panics.
func TestReleasedRNGPanics(t *testing.T) {
	g := NewRNG(1)
	f := g.Fork("x").Fork("y")
	before := sources.Len()
	f.Release()
	g.Release()
	if n := sources.Len() - before; n != 3 {
		t.Fatalf("releasing a family of 3 shelved %d sources", n)
	}
	for _, m := range []*RNG{g, f} {
		if !panics(func() { m.Float64() }) {
			t.Error("a draw from a released RNG did not panic")
		}
	}
}

// TestShelfConcurrent: workers of one process share a shelf.
func TestShelfConcurrent(t *testing.T) {
	var s Shelf[int]
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 1000 {
				s.Put(w*1000 + i)
				if _, ok := s.Get(); !ok {
					t.Error("Get after Put found the shelf empty")
				}
			}
			s.Put(w)
		}()
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("Len %d after 4 workers each left one value", s.Len())
	}
}

// TestKernelReleasedStorageComesBack releases a kernel with events pending
// in the heap, in level 0 and in level 1, checks the next kernel runs on its
// storage with every callback dropped, and holds that kernel to the
// reference sort of TestKernelOrderRandomized.
func TestKernelReleasedStorageComesBack(t *testing.T) {
	k := NewKernel()
	ran := false
	fn := func() { ran = true }
	for i := range 2 * (1 << nodeBlockBits) {
		k.Schedule(2*Second+Time(i)*Microsecond, fn) // level 0, over two node blocks
	}
	k.Schedule(10*Second, fn)          // level 1
	k.Schedule(2*Hour, fn)             // beyond level 1: the heap
	k.Schedule(Microsecond, func() {}) // spills first, moving the horizon
	k.Step()
	k.Schedule(0, fn) // before the horizon: the heap
	if len(k.events) < 2 || k.l0Used == [l0Len / 64]uint64{} || k.l1Used == [l1Len / 64]uint64{} {
		t.Fatalf("heap %d, level 0 %v, level 1 %v: not every region holds an event", len(k.events),
			k.l0Used != [l0Len / 64]uint64{}, k.l1Used != [l1Len / 64]uint64{})
	}
	now, executed, nodes, slots := k.Now(), k.Executed(), k.nodes, len(k.slots)
	k.Release()
	k.Release()
	if k.Now() != now || k.Executed() != executed || k.Pending() != 0 {
		t.Fatalf("released kernel: now %v executed %d pending %d; want %v, %d, 0", k.Now(), k.Executed(), k.Pending(), now, executed)
	}
	if err := k.Run(); err != nil || ran {
		t.Fatalf("Run on a released kernel: %v, a dropped callback ran: %v", err, ran)
	}
	if !panics(func() { k.Schedule(0, fn) }) {
		t.Fatal("Schedule on a released kernel did not panic")
	}

	next := NewKernel()
	if len(next.nodes) != len(nodes) || next.nodes[0] != nodes[0] || cap(next.slots) < slots {
		t.Fatalf("next kernel has %d node blocks and %d slots, not the released %d and %d",
			len(next.nodes), cap(next.slots), len(nodes), slots)
	}
	for i, s := range next.slots[:cap(next.slots)] {
		if s.fn != nil {
			t.Fatalf("slot %d still holds a released kernel's callback", i)
		}
	}
	runOrderScript(t, next, randomScript(1))
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
