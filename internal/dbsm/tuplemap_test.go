package dbsm

import (
	"math/rand"
	"testing"
)

// clusteredKeys returns n tuples of one table whose hashes all fall in the
// top eighth, so that in a table of any size they home into its last eighth
// of cells: a run of more than an eighth of the cells wraps past the end of
// the array, and a deletion shifts cells back across the wrap.
func clusteredKeys(n int) []TupleID {
	keys := make([]TupleID, 0, n)
	for row := uint64(0); len(keys) < n; row++ {
		if k := MakeTupleID(3, row); (uint64(k)*tupleHash)>>61 == 7 {
			keys = append(keys, k)
		}
	}
	return keys
}

// FuzzTupleMap replays a byte-encoded sequence of operations on a TupleMap
// and on a Go map, and requires the same answer from both for every key and
// the same Len after every operation. Each operation is two bytes: the first
// picks the operation (its low two bits: put, put, delete, get only) and the
// key (the rest), the second is the value put, where 0 deletes. The 24 keys
// home into the last eighth of the table, which holds 16 to 64 cells, so
// probe runs wrap and deletions shift cells across the wrap.
func FuzzTupleMap(f *testing.F) {
	keys := clusteredKeys(24)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 20, 100, 600} {
		seed := make([]byte, 2*n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m TupleMap[uint64]
		ref := make(map[TupleID]uint64)
		for i := 0; i+1 < len(ops); i += 2 {
			k, v := keys[int(ops[i]>>2)%len(keys)], uint64(ops[i+1])
			switch ops[i] & 3 {
			case 0, 1:
				m.Put(k, v)
				if v == 0 {
					delete(ref, k)
				} else {
					ref[k] = v
				}
			case 2:
				m.Delete(k)
				delete(ref, k)
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len %d, want %d", i/2, m.Len(), len(ref))
			}
			for _, k := range keys {
				if got, want := m.Get(k), ref[k]; got != want {
					t.Fatalf("op %d: Get(%#x) = %d, want %d", i/2, uint64(k), got, want)
				}
			}
		}
	})
}

// TestTupleMapAllocFree pins a table at a size it has already reached: 13 000
// puts, the gets of every key and of as many keys with no cell, the deletes of
// every key, and a Clear allocate nothing, for uint64 values (the certifier's
// index) and pointer values (the lock table). It holds TupleMap.Get, Put,
// Delete, del and Clear.
func TestTupleMapAllocFree(t *testing.T) {
	keys := make([]TupleID, 13000)
	for i := range keys {
		keys[i] = MakeTupleID(uint16(1+i%9), uint64(i)*7919)
	}
	var seqs TupleMap[uint64]
	if n := mallocs(5, func() {
		for i, k := range keys {
			seqs.Put(k, uint64(i+1))
		}
		for i, k := range keys {
			if seqs.Get(k) != uint64(i+1) || seqs.Get(k+1) != 0 {
				t.Fatalf("key %d lost", i)
			}
		}
		for _, k := range keys[:len(keys)/2] {
			seqs.Delete(k)
		}
		seqs.Clear()
	}); n != 0 {
		t.Fatalf("uint64 values: %d allocs in 5 rounds at a reached size, want 0", n)
	}
	var holders TupleMap[*int]
	one := new(int)
	if n := mallocs(5, func() {
		for _, k := range keys {
			holders.Put(k, one)
		}
		for _, k := range keys {
			holders.Delete(k)
		}
		if holders.Len() != 0 {
			t.Fatalf("%d cells left", holders.Len())
		}
	}); n != 0 {
		t.Fatalf("pointer values: %d allocs in 5 rounds at a reached size, want 0", n)
	}
}

// BenchmarkTupleMap times the certifier's mix on one index generation at the
// size lan3_cons grows it to, about 13 000 cells: per operation, one put that
// overwrites a cell (a commit's write) and two gets, one of a tuple with a
// cell and one of a tuple without (a read the generation may or may not
// know). The Go map sub-benchmark is the same mix on map[TupleID]uint64.
func BenchmarkTupleMap(b *testing.B) {
	const cells = 13000
	keys := make([]TupleID, cells)
	for i := range keys {
		keys[i] = MakeTupleID(uint16(1+i%9), uint64(i)*7919)
	}
	order := rand.New(rand.NewSource(1)).Perm(cells)
	b.Run("TupleMap", func(b *testing.B) {
		var m TupleMap[uint64]
		for i, k := range keys {
			m.Put(k, uint64(i+1))
		}
		var sum uint64
		i := 0
		for b.Loop() {
			k := keys[order[i%cells]]
			m.Put(k, uint64(i+1))
			sum += m.Get(keys[order[(i+7)%cells]]) + m.Get(k+1)
			i++
		}
		_ = sum
	})
	b.Run("GoMap", func(b *testing.B) {
		m := make(map[TupleID]uint64)
		for i, k := range keys {
			m[k] = uint64(i + 1)
		}
		var sum uint64
		i := 0
		for b.Loop() {
			k := keys[order[i%cells]]
			m[k] = uint64(i + 1)
			sum += m[keys[order[(i+7)%cells]]] + m[k+1]
			i++
		}
		_ = sum
	})
}
