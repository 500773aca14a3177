package gcs

import (
	"encoding/binary"
	"slices"
	"testing"
)

// seqRingModel is the Go map a FuzzSeqRing input is replayed against.
type seqRingModel map[uint64]uint64

// span reports the lowest and highest key the model would hold after a put
// of k.
func (m seqRingModel) span(k uint64) (lo, hi uint64) {
	lo, hi = k, k
	for key := range m {
		lo, hi = min(lo, key), max(hi, key)
	}
	return lo, hi
}

// sorted returns the model's keys in [from, to], ascending.
func (m seqRingModel) sorted(from, to uint64) []uint64 {
	var keys []uint64
	for k := range m {
		if k >= from && k <= to {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// FuzzSeqRing replays a byte-encoded sequence of operations against a
// seqRing and a Go map and requires the same answers. The first eight bytes
// are the base key; each following five-byte record is an operation and two
// 16-bit arguments a and b, and every key is base+a. A 16-bit offset reaches
// past seqWindowCap, so puts are refused; moving the base after the ring
// empties makes it rebase; keys near a multiple of the array size make growth
// copy across the wrap; and the visits delete the key they are at, and the
// one after it, as the stack's loops do.
func FuzzSeqRing(f *testing.F) {
	rec := func(base uint64, ops ...[3]uint16) []byte {
		b := binary.BigEndian.AppendUint64(nil, base)
		for _, op := range ops {
			b = append(b, byte(op[0]))
			b = binary.BigEndian.AppendUint16(b, op[1])
			b = binary.BigEndian.AppendUint16(b, op[2])
		}
		return b
	}
	const put, get, del, visit, visitBreak, clr, move = 0, 1, 2, 3, 4, 5, 6
	// growth across the wrap: 60..69 straddle slot 63 of the first array,
	// and 130 doubles it twice
	f.Add(rec(0, [3]uint16{put, 60}, [3]uint16{put, 63}, [3]uint16{put, 64}, [3]uint16{put, 69},
		[3]uint16{put, 130}, [3]uint16{get, 64}, [3]uint16{visit, 0, 200}))
	// refusal past the cap; deleting the bottom key lets the span reach
	// further up; deletes that empty the ring, and a rebase far away
	f.Add(rec(1<<40, [3]uint16{put, 5}, [3]uint16{put, 5 + seqWindowCap}, [3]uint16{put, 4 + seqWindowCap},
		[3]uint16{del, 5}, [3]uint16{put, 2 * seqWindowCap}, [3]uint16{del, 4 + seqWindowCap},
		[3]uint16{del, 2 * seqWindowCap}, [3]uint16{move, 9, 9}, [3]uint16{put, 1}, [3]uint16{get, 1}))
	// a stable prefix deleted during a visit, and a visit cut short
	f.Add(rec(^uint64(0)-40, [3]uint16{put, 1}, [3]uint16{put, 2}, [3]uint16{put, 3}, [3]uint16{put, 7},
		[3]uint16{put, 40}, [3]uint16{visit, 0, 5}, [3]uint16{visitBreak, 0, 1000}, [3]uint16{clr}, [3]uint16{put, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		base := binary.BigEndian.Uint64(data)
		var r seqRing[uint64]
		model := seqRingModel{}
		next := uint64(1) // the value the next put stores
		for data = data[8:]; len(data) >= 5; data = data[5:] {
			op := data[0] % 7
			a := uint64(binary.BigEndian.Uint16(data[1:]))
			b := uint64(binary.BigEndian.Uint16(data[3:]))
			k := base + a
			switch op {
			case put:
				lo, hi := model.span(k)
				want := hi-lo < seqWindowCap
				if got := r.put(k, next); got != want {
					t.Fatalf("put(%d) = %v, want %v (model span %d..%d)", k, got, want, lo, hi)
				}
				if want {
					model[k] = next
				}
				next++
			case get:
				v, ok := r.get(k)
				if wv, wok := model[k]; v != wv || ok != wok {
					t.Fatalf("get(%d) = %d, %v; want %d, %v", k, v, ok, wv, wok)
				}
			case del:
				r.del(k)
				delete(model, k)
			case visit:
				// Delete, during the walk, the key the walk is at
				// (one in three) and the key after it (one in five).
				to := k + b
				var got [][2]uint64
				for key, v := range r.visit(k, to) {
					got = append(got, [2]uint64{key, v})
					if key%3 == b%3 {
						r.del(key)
					}
					if key%5 == b%5 {
						r.del(key + 1)
					}
				}
				var want [][2]uint64
				for _, key := range model.sorted(k, to) {
					v, ok := model[key]
					if !ok {
						continue // deleted ahead of the walk
					}
					want = append(want, [2]uint64{key, v})
					if key%3 == b%3 {
						delete(model, key)
					}
					if key%5 == b%5 {
						delete(model, key+1)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("visit(%d, %d) = %v, want %v", k, to, got, want)
				}
			case visitBreak:
				stop := int(b%4) + 1
				var got []uint64
				for key := range r.visit(k, ^uint64(0)) {
					if got = append(got, key); len(got) == stop {
						break
					}
				}
				want := model.sorted(k, ^uint64(0))
				want = want[:min(stop, len(want))]
				if !slices.Equal(got, want) {
					t.Fatalf("visit(%d, max) cut at %d = %v, want %v", k, stop, got, want)
				}
			case clr:
				r.clear()
				clear(model)
			case move:
				base += a<<24 | b
			}
			if r.len() != len(model) {
				t.Fatalf("len %d, model holds %d", r.len(), len(model))
			}
		}
		var got []uint64
		for key := range r.all() {
			got = append(got, key)
		}
		want := model.sorted(0, ^uint64(0))
		if !slices.Equal(got, want) {
			t.Fatalf("all() = %v, want %v", got, want)
		}
		top, ok := r.top()
		if ok != (len(want) > 0) || ok && top != want[len(want)-1] {
			t.Fatalf("top() = %d, %v; model keys %v", top, ok, want)
		}
	})
}

// TestSeqRingAllocFree pins the ring's budget: once it has reached the size a
// window needs, put, get, del and a visit allocate nothing. It holds every
// ring of the stack — sendBuf, each recvBuf, totalOrder.order — between
// growths.
func TestSeqRingAllocFree(t *testing.T) {
	var r seqRing[*dataMsg]
	m := &dataMsg{}
	for k := uint64(1); k <= 300; k++ {
		r.put(k, m)
	}
	next := uint64(301)
	allocs := testing.AllocsPerRun(1000, func() {
		r.put(next, m)
		if _, ok := r.get(next - 150); !ok {
			t.Fatal("lost a key inside the window")
		}
		for k := range r.visit(next-300, next-299) {
			r.del(k)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("warm seqRing put/get/visit/del: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkSeqRing times a receive buffer's traffic pattern per chunk: chunks
// arrive in ascending order with every eighth pair swapped (a reordered
// datagram), the FIFO cursor takes each next chunk as soon as it is there, and
// every 32 chunks a stability round releases the prefix 64 below the cursor.
// The map sub-benchmark runs the same pattern over the map[uint64]*dataMsg
// the ring replaced.
func BenchmarkSeqRing(b *testing.B) {
	arrival := func(i uint64) uint64 { // chunk i's sequence number
		if i%16 == 7 {
			return i + 1
		}
		if i%16 == 8 {
			return i - 1
		}
		return i
	}
	m := &dataMsg{}
	b.Run("ring", func(b *testing.B) {
		var r seqRing[*dataMsg]
		next, stable := uint64(1), uint64(0)
		for i := uint64(1); i <= uint64(b.N); i++ {
			r.put(arrival(i), m)
			for {
				if _, ok := r.get(next); !ok {
					break
				}
				next++
			}
			if i%32 == 0 && next > stable+64 {
				for k := range r.visit(stable+1, next-64) {
					r.del(k)
				}
				stable = next - 64
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		buf := make(map[uint64]*dataMsg)
		next, stable := uint64(1), uint64(0)
		for i := uint64(1); i <= uint64(b.N); i++ {
			buf[arrival(i)] = m
			for {
				if _, ok := buf[next]; !ok {
					break
				}
				next++
			}
			if i%32 == 0 && next > stable+64 {
				for k := stable + 1; k <= next-64; k++ {
					delete(buf, k)
				}
				stable = next - 64
			}
		}
	})
}
