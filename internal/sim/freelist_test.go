package sim

import (
	"slices"
	"testing"
)

type rec struct{ n int }

func TestFreeListLIFO(t *testing.T) {
	var f FreeList[*rec]
	if f.Get() != nil || f.Len() != 0 {
		t.Fatal("the zero FreeList is not empty")
	}
	a, b, c := &rec{1}, &rec{2}, &rec{3}
	f.Put(a)
	f.Put(b)
	f.Put(c)
	if got := slices.Collect(f.All()); !slices.Equal(got, []*rec{a, b, c}) {
		t.Fatalf("All = %v, want oldest first", got)
	}
	for _, want := range []*rec{c, b, a, nil} {
		if got := f.Get(); got != want {
			t.Fatalf("Get = %v, want %v", got, want)
		}
	}
}

// TestFreeListGetZeroesSlot: a popped value must not stay reachable from
// the backing array, or the list pins every record it ever handed out.
func TestFreeListGetZeroesSlot(t *testing.T) {
	var f FreeList[*rec]
	f.Put(&rec{1})
	f.Put(&rec{2})
	f.Get()
	if tail := f.free[:2][1]; tail != nil {
		t.Fatalf("vacated slot still holds %v", tail)
	}
	var b FreeList[[]byte]
	b.Put(make([]byte, 0, 8))
	b.Get()
	if tail := b.free[:1][0]; tail != nil {
		t.Fatal("vacated slot still holds the buffer")
	}
}

func TestFreeListDrop(t *testing.T) {
	var f FreeList[*rec]
	f.Put(&rec{1})
	f.Drop()
	if f.free != nil || f.Len() != 0 || f.Get() != nil {
		t.Fatal("Drop kept the backing array")
	}
	f.Put(&rec{2}) // a dropped list is the zero list: usable again
	if f.Len() != 1 {
		t.Fatal("Put after Drop lost the value")
	}
}

// TestFreeListOut: the count owners' drain tests read. A miss is lent like a
// hit, Put and Discard take a value back, a Get without either leaves it
// counted, and Drop forgets it.
func TestFreeListOut(t *testing.T) {
	var f FreeList[*rec]
	r := f.Get() // a miss: the caller allocates
	if r != nil || f.Out() != 1 {
		t.Fatalf("after a missed Get: Out = %d, want 1", f.Out())
	}
	f.Put(&rec{})
	if f.Out() != 0 {
		t.Fatalf("after the Put: Out = %d, want 0", f.Out())
	}
	f.Get()
	f.Get()
	f.Discard()
	if f.Out() != 1 {
		t.Fatalf("two Gets and a Discard: Out = %d, want 1 (the leaked one)", f.Out())
	}
	f.Drop()
	if f.Out() != 0 {
		t.Fatalf("after Drop: Out = %d, want 0", f.Out())
	}
}

// TestFreeListHandover: the waiting values move to the next owner's list
// in their order, on the same backing array, and neither side counts them
// as lent. Race builds key adopted values as waiting, so the double-put
// check holds on the new list.
func TestFreeListHandover(t *testing.T) {
	var old FreeList[*rec]
	a, b := &rec{1}, &rec{2}
	old.Get() // two misses: the owner allocates a and b
	old.Get()
	old.Put(a)
	old.Put(b)
	leaked := old.Get() // b, still lent when the owner hands over
	vs := old.Handover()
	if old.Len() != 0 || old.Out() != 1 || !slices.Equal(vs, []*rec{a}) {
		t.Fatalf("after Handover: %d waiting, %d lent, handed %v; want 0, 1 and [a]", old.Len(), old.Out(), vs)
	}
	old.Put(leaked)
	if old.Len() != 1 { // the old list is the zero list plus what it still lends
		t.Fatal("Put after Handover lost the value")
	}
	var next FreeList[*rec]
	next.Adopt(append(vs, b))
	if next.Out() != 0 || !slices.Equal(slices.Collect(next.All()), []*rec{a, b}) {
		t.Fatalf("adopted list: %d lent, waiting %v; want 0 and [a b]", next.Out(), slices.Collect(next.All()))
	}
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return
	}
	if got := next.Get(); got != b || next.Out() != 1 {
		t.Fatalf("Get = %v with %d lent, want b and 1", got, next.Out())
	}
	next.Put(b)
	if got := panics(func() { next.Put(a) }); got != RaceBuild {
		t.Fatalf("Put of an adopted value still waiting panicked = %v, want %v", got, RaceBuild)
	}
	if !panics(func() { next.Adopt([]*rec{{3}}) }) {
		t.Fatal("Adopt onto a list with values waiting did not panic")
	}
}

func TestFreeListWarmCycleAllocFree(t *testing.T) {
	var f FreeList[*rec]
	f.Put(&rec{})
	if n := testing.AllocsPerRun(1000, func() { f.Put(f.Get()) }); n != 0 {
		t.Fatalf("pointer Get/Put: %v allocs/op, want 0", n)
	}
	var b FreeList[[]byte]
	b.Put(make([]byte, 0, 64))
	if n := testing.AllocsPerRun(1000, func() { b.Put(b.Get()[:0]) }); n != 0 {
		t.Fatalf("[]byte Get/Put: %v allocs/op, want 0", n)
	}
}

// TestFreeListDoublePut: race builds refuse a value that is already
// waiting — by pointer, and for a slice by backing array whatever its
// length — and ordinary builds do not pay for the scan.
func TestFreeListDoublePut(t *testing.T) {
	panics := func(put func()) (did bool) {
		defer func() { did = recover() != nil }()
		put()
		return
	}
	var f FreeList[*rec]
	r := &rec{}
	f.Put(&rec{})
	f.Put(r)
	if got := panics(func() { f.Put(r) }); got != RaceBuild {
		t.Fatalf("second Put of a pointer panicked = %v, want %v", got, RaceBuild)
	}
	var b FreeList[[]byte]
	buf := make([]byte, 4, 8)
	b.Put(buf[:0])
	if got := panics(func() { b.Put(buf) }); got != RaceBuild {
		t.Fatalf("second Put of a buffer panicked = %v, want %v", got, RaceBuild)
	}
	f.Get()
	if panics(func() { f.Put(r) }) {
		t.Fatal("Put of a value that had been taken out again panicked")
	}
}

// TestPoisonFillsTheWholeArray: Poison overwrites every element of the
// backing array, past the slice's length too, with all-ones, for bytes and
// for a defined slice of 64-bit identifiers alike, and leaves an empty
// array alone.
func TestPoisonFillsTheWholeArray(t *testing.T) {
	Poison([]byte(nil))
	b := []byte{1, 2, 3, 4, 5}[:2]
	Poison(b)
	if b = b[:cap(b)]; !slices.Equal(b, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Fatalf("bytes after Poison: %v", b)
	}
	type ids []uint64
	s := ids{7, 8, 9}[:0]
	Poison(s)
	if s = s[:cap(s)]; !slices.Equal(s, ids{^uint64(0), ^uint64(0), ^uint64(0)}) {
		t.Fatalf("identifiers after Poison: %v", s)
	}
}
