package dbsm

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTupleIDEncoding(t *testing.T) {
	id := MakeTupleID(7, 123456)
	if id.Table() != 7 || id.Row() != 123456 || id.IsTableLock() {
		t.Fatalf("id = %x: table=%d row=%d", uint64(id), id.Table(), id.Row())
	}
	lock := MakeTableLock(7)
	if lock.Table() != 7 || !lock.IsTableLock() {
		t.Fatalf("lock = %x", uint64(lock))
	}
	// Row truncation to 48 bits.
	big := MakeTupleID(1, 1<<60|42)
	if big.Row() != 42 {
		t.Fatalf("row = %d, want 42", big.Row())
	}
}

func TestItemSetSortedDedup(t *testing.T) {
	s := NewItemSet(MakeTupleID(2, 5), MakeTupleID(1, 9), MakeTupleID(2, 5), MakeTupleID(1, 1))
	if len(s) != 3 {
		t.Fatalf("len = %d, want 3 (dedup)", len(s))
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		t.Fatal("not sorted")
	}
	if !s.Contains(MakeTupleID(1, 9)) || s.Contains(MakeTupleID(9, 9)) {
		t.Fatal("Contains wrong")
	}
}

func TestIntersects(t *testing.T) {
	a := NewItemSet(MakeTupleID(1, 1), MakeTupleID(1, 5), MakeTupleID(2, 3))
	b := NewItemSet(MakeTupleID(1, 2), MakeTupleID(2, 3))
	if !a.Intersects(b) {
		t.Fatal("common tuple not detected")
	}
	c := NewItemSet(MakeTupleID(1, 2), MakeTupleID(3, 1))
	if a.Intersects(c) {
		t.Fatal("false intersection")
	}
	if a.Intersects(nil) || ItemSet(nil).Intersects(a) {
		t.Fatal("empty set intersects")
	}
}

func TestIntersectsTableLock(t *testing.T) {
	tuples := NewItemSet(MakeTupleID(5, 100), MakeTupleID(6, 1))
	lock := NewItemSet(MakeTableLock(5))
	if !tuples.Intersects(lock) {
		t.Fatal("table lock vs tuple of same table must conflict")
	}
	if !lock.Intersects(tuples) {
		t.Fatal("must be symmetric")
	}
	other := NewItemSet(MakeTableLock(7))
	if tuples.Intersects(other) {
		t.Fatal("lock on different table must not conflict")
	}
	if !lock.Intersects(NewItemSet(MakeTableLock(5))) {
		t.Fatal("lock vs lock on same table must conflict")
	}
}

// Property: Intersects is symmetric and agrees with a naive n^2 check
// including table-lock semantics.
func TestIntersectsProperty(t *testing.T) {
	naive := func(a, b ItemSet) bool {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return true
				}
				if x.Table() == y.Table() && (x.IsTableLock() || y.IsTableLock()) {
					return true
				}
			}
		}
		return false
	}
	f := func(ar, br []uint16, lockA, lockB bool) bool {
		var a, b ItemSet
		for _, v := range ar {
			a = append(a, MakeTupleID(uint16(v%4), uint64(v%16)))
		}
		for _, v := range br {
			b = append(b, MakeTupleID(uint16(v%4), uint64(v%16)))
		}
		if lockA && len(ar) > 0 {
			a = append(a, MakeTableLock(uint16(ar[0]%4)))
		}
		if lockB && len(br) > 0 {
			b = append(b, MakeTableLock(uint16(br[0]%4)))
		}
		a, b = NewItemSet(a...), NewItemSet(b...)
		want := naive(a, b)
		return a.Intersects(b) == want && b.Intersects(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeToTableLocks(t *testing.T) {
	var s ItemSet
	for i := 0; i < 10; i++ {
		s = append(s, MakeTupleID(1, uint64(i)))
	}
	s = append(s, MakeTupleID(2, 1))
	s = NewItemSet(s...)
	up := s.UpgradeToTableLocks(5)
	if len(up) != 2 {
		t.Fatalf("len = %d, want 2 (lock + single tuple)", len(up))
	}
	if !up.Contains(MakeTableLock(1)) || !up.Contains(MakeTupleID(2, 1)) {
		t.Fatalf("upgrade wrong: %v", up)
	}
	// Below threshold: unchanged.
	same := s.UpgradeToTableLocks(50)
	if len(same) != len(s) {
		t.Fatal("should not upgrade below threshold")
	}
	if got := s.UpgradeToTableLocks(0); len(got) != len(s) {
		t.Fatal("threshold 0 must disable upgrades")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	tc := &TxnCert{
		TID:           MakeTID(3, 77),
		Site:          3,
		LastCommitted: 41,
		ReadSet:       NewItemSet(MakeTupleID(1, 1), MakeTupleID(2, 9)),
		WriteSet:      NewItemSet(MakeTupleID(2, 9)),
		WriteBytes:    655,
	}
	wire := tc.Marshal()
	if len(wire) != tc.MarshaledSize() {
		t.Fatalf("wire size %d != MarshaledSize %d", len(wire), tc.MarshaledSize())
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.TID != tc.TID || got.Site != tc.Site || got.LastCommitted != tc.LastCommitted ||
		got.WriteBytes != tc.WriteBytes || len(got.ReadSet) != 2 || len(got.WriteSet) != 1 {
		t.Fatalf("got %+v", got)
	}
	if got.ReadSet[1] != MakeTupleID(2, 9) {
		t.Fatal("read set corrupted")
	}
}

func TestUnmarshalRejectsTruncated(t *testing.T) {
	tc := &TxnCert{TID: 1, ReadSet: NewItemSet(MakeTupleID(1, 1)), WriteBytes: 10}
	wire := tc.Marshal()
	for cut := 0; cut < len(wire); cut++ {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestMakeTID(t *testing.T) {
	tid := MakeTID(5, 99)
	if TIDSite(tid) != 5 {
		t.Fatalf("site = %d", TIDSite(tid))
	}
}

func TestCertifyCommitAndConflict(t *testing.T) {
	c := NewCertifier()
	w1 := NewItemSet(MakeTupleID(1, 10))
	out := c.Certify(&TxnCert{TID: 1, ReadSet: w1, WriteSet: w1, LastCommitted: 0})
	if !out.Commit || out.Seq != 1 {
		t.Fatalf("first txn: %+v", out)
	}
	// Concurrent reader of tuple (1,10): conflicts with txn 1.
	out2 := c.Certify(&TxnCert{
		TID: 2, LastCommitted: 0,
		ReadSet:  NewItemSet(MakeTupleID(1, 10), MakeTupleID(1, 11)),
		WriteSet: NewItemSet(MakeTupleID(1, 11)),
	})
	if out2.Commit {
		t.Fatal("conflicting concurrent txn committed")
	}
	// Same read-set but serialized after txn 1: no conflict.
	out3 := c.Certify(&TxnCert{
		TID: 3, LastCommitted: 1,
		ReadSet:  NewItemSet(MakeTupleID(1, 10)),
		WriteSet: NewItemSet(MakeTupleID(1, 10)),
	})
	if !out3.Commit || out3.Seq != 2 {
		t.Fatalf("serialized txn: %+v", out3)
	}
}

func TestCertifyReadOnlyNeverRetained(t *testing.T) {
	c := NewCertifier()
	out := c.Certify(&TxnCert{TID: 1, ReadSet: NewItemSet(MakeTupleID(1, 1))})
	if !out.Commit {
		t.Fatal("read-only must commit")
	}
	if c.HistoryLen() != 0 {
		t.Fatal("read-only txn should leave no write-set history")
	}
}

func TestCertifierDeterministicAcrossReplicas(t *testing.T) {
	// Feed the same ordered stream to two certifiers: identical verdicts.
	mk := func() []*TxnCert {
		var txns []*TxnCert
		for i := 0; i < 100; i++ {
			rs := NewItemSet(MakeTupleID(1, uint64(i%7)), MakeTupleID(2, uint64(i%3)))
			ws := NewItemSet(MakeTupleID(1, uint64(i%7)))
			txns = append(txns, &TxnCert{
				TID: uint64(i), ReadSet: rs, WriteSet: ws,
				LastCommitted: uint64(max(0, i-5)),
			})
		}
		return txns
	}
	a, b := NewCertifier(), NewCertifier()
	sa, sb := mk(), mk()
	for i := range sa {
		// LastCommitted beyond current seq means "saw everything": clamp.
		if sa[i].LastCommitted > a.Seq() {
			sa[i].LastCommitted = a.Seq()
			sb[i].LastCommitted = b.Seq()
		}
		oa, ob := a.Certify(sa[i]), b.Certify(sb[i])
		if oa != ob {
			t.Fatalf("replicas diverged at %d: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestCertifierChargeHook(t *testing.T) {
	c := NewCertifier()
	var charged int
	c.Charge = func(items int) { charged += items }
	ws := NewItemSet(MakeTupleID(1, 1))
	c.Certify(&TxnCert{TID: 1, ReadSet: ws, WriteSet: ws})
	c.Certify(&TxnCert{TID: 2, ReadSet: ws, WriteSet: ws, LastCommitted: 0})
	if charged == 0 {
		t.Fatal("charge hook never invoked with work")
	}
}

// Property: certification outcome is independent of set construction order.
func TestCertifyOrderInsensitiveProperty(t *testing.T) {
	f := func(reads []uint8, writes []uint8, perm uint8) bool {
		mk := func(vals []uint8, shift int) ItemSet {
			ids := make([]TupleID, len(vals))
			for i, v := range vals {
				ids[i] = MakeTupleID(uint16(v%3), uint64(v>>2)+uint64(shift))
			}
			return NewItemSet(ids...)
		}
		rs := mk(reads, 0)
		ws := mk(writes, 0)
		c1, c2 := NewCertifier(), NewCertifier()
		seed := NewItemSet(MakeTupleID(0, 1), MakeTupleID(1, 2))
		c1.Certify(&TxnCert{TID: 1, ReadSet: seed, WriteSet: seed})
		c2.Certify(&TxnCert{TID: 1, ReadSet: seed, WriteSet: seed})
		// Reverse input order for c2's set construction.
		rev := make([]uint8, len(reads))
		for i, v := range reads {
			rev[len(reads)-1-i] = v
		}
		rs2 := mk(rev, 0)
		o1 := c1.Certify(&TxnCert{TID: 2, ReadSet: rs, WriteSet: ws})
		o2 := c2.Certify(&TxnCert{TID: 2, ReadSet: rs2, WriteSet: ws})
		return o1 == o2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
