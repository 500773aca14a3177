package dbsm

import (
	"encoding/binary"
	"slices"
	"testing"
)

// hostileLengthCert builds a certification message whose header carries the
// given (possibly hostile) nr/nw/writeBytes length fields over a body of
// bodyLen zero bytes.
func hostileLengthCert(nr, nw, wb uint32, bodyLen int) []byte {
	b := make([]byte, certHeader+bodyLen)
	binary.BigEndian.PutUint64(b[0:8], 1)    // TID
	binary.BigEndian.PutUint32(b[8:12], 2)   // Site
	binary.BigEndian.PutUint64(b[12:20], 3)  // LastCommitted
	binary.BigEndian.PutUint32(b[20:24], nr) // |ReadSet|
	binary.BigEndian.PutUint32(b[24:28], nw) // |WriteSet|
	binary.BigEndian.PutUint32(b[28:32], wb) // WriteBytes
	return b
}

// FuzzUnmarshal asserts that no input — in particular hostile length fields
// that would overflow the offset arithmetic if multiplied before validation —
// can panic the decoder, and that every accepted input re-marshals
// consistently. The seed corpus pins the overflow-shaped headers.
func FuzzUnmarshal(f *testing.F) {
	// Well-formed message.
	good := (&TxnCert{
		TID: 9, Site: 1, LastCommitted: 5,
		ReadSet:    NewItemSet(MakeTupleID(1, 2), MakeTupleID(3, 4)),
		WriteSet:   NewItemSet(MakeTupleID(1, 2)),
		WriteBytes: 64,
	}).Marshal()
	f.Add(good)
	// Truncated header.
	f.Add(good[:certHeader-1])
	// Hostile counts: nr*8 alone overflows int32 arithmetic, and
	// nr+nw sums past any buffer. The decoder must reject these by
	// bounding each count against len(b) before any multiplication.
	f.Add(hostileLengthCert(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0))
	f.Add(hostileLengthCert(0x20000000, 0x20000000, 0, 16))
	f.Add(hostileLengthCert(2, 0xFFFFFFFE, 0, 16))
	f.Add(hostileLengthCert(0, 0, 0xFFFFFFFF, 8))
	// Counts that fit the header but overrun the body.
	f.Add(hostileLengthCert(3, 0, 0, 16))

	// One record takes every input of the run, as a replica's does: what an
	// earlier decode left in it must never show in a later one.
	var reused TxnCert
	f.Fuzz(func(t *testing.T, data []byte) {
		before := reused
		tc, err := Unmarshal(data)
		if rerr := reused.UnmarshalFrom(data); (rerr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v, decode into a reused record: %v", err, rerr)
		}
		if err != nil {
			if !sameCert(&reused, &before) {
				t.Fatal("a rejected input changed the record")
			}
			return
		}
		if !sameCert(&reused, tc) {
			t.Fatalf("reused record decoded %+v, fresh record %+v", reused, *tc)
		}
		// Accepted input: the sets must lie within the buffer and the
		// message must re-marshal to a decodable form.
		if len(tc.ReadSet)*8+len(tc.WriteSet)*8+tc.WriteBytes > len(data) {
			t.Fatalf("accepted sets larger than input: nr=%d nw=%d wb=%d len=%d",
				len(tc.ReadSet), len(tc.WriteSet), tc.WriteBytes, len(data))
		}
		if _, err := PeekTID(data); err != nil {
			t.Fatal("PeekTID failed on a message Unmarshal accepted")
		}
		rt, err := Unmarshal(tc.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal: %v", err)
		}
		if rt.TID != tc.TID || len(rt.ReadSet) != len(tc.ReadSet) || len(rt.WriteSet) != len(tc.WriteSet) {
			t.Fatal("round trip mismatch")
		}
	})
}

// sameCert reports whether two records hold the same message.
func sameCert(a, b *TxnCert) bool {
	return a.TID == b.TID && a.Site == b.Site && a.LastCommitted == b.LastCommitted &&
		a.WriteBytes == b.WriteBytes && slices.Equal(a.ReadSet, b.ReadSet) && slices.Equal(a.WriteSet, b.WriteSet)
}

// TestDecodedWriteSetSurvivesReuse: a write-set taken from one decode is the
// holder's for good — ten further decodes into the same record, each of which
// overwrites the record's read-set storage (with a poison pattern first, in
// race builds), leave it bit-identical — while the read-set is the record's.
func TestDecodedWriteSetSurvivesReuse(t *testing.T) {
	msg := func(i uint64) *TxnCert {
		return &TxnCert{
			TID: i, Site: 2, LastCommitted: i / 2,
			ReadSet:  NewItemSet(MakeTupleID(1, i), MakeTupleID(2, i+1), MakeTupleID(3, i+2)),
			WriteSet: NewItemSet(MakeTupleID(1, i), MakeTupleID(3, i+2)),
		}
	}
	var rec TxnCert
	if err := rec.UnmarshalFrom(msg(1).Marshal()); err != nil {
		t.Fatal(err)
	}
	kept, want := rec.WriteSet, msg(1).WriteSet.Clone()
	reads := rec.ReadSet
	for i := uint64(2); i <= 11; i++ {
		if err := rec.UnmarshalFrom(msg(i).Marshal()); err != nil {
			t.Fatal(err)
		}
		if !sameCert(&rec, msg(i)) {
			t.Fatalf("decode %d into the reused record: %+v", i, rec)
		}
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("write-set kept from the first decode is now %v, was %v", kept, want)
	}
	if &reads[0] != &rec.ReadSet[0] {
		t.Fatal("read-set storage was not reused")
	}
}

// TestUnmarshalHostileLengths is the non-fuzz pin of the overflow corpus, so
// plain `go test` exercises it too.
func TestUnmarshalHostileLengths(t *testing.T) {
	cases := [][]byte{
		hostileLengthCert(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0),
		hostileLengthCert(0x20000000, 0x20000000, 0, 16),
		hostileLengthCert(2, 0xFFFFFFFE, 0, 16),
		hostileLengthCert(0, 0, 0xFFFFFFFF, 8),
		hostileLengthCert(3, 0, 0, 16),
	}
	for i, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Fatalf("case %d: hostile lengths accepted", i)
		}
	}
	// Sanity: the zero-length-sets message is still fine.
	if _, err := Unmarshal(hostileLengthCert(0, 0, 0, 0)); err != nil {
		t.Fatalf("benign empty message rejected: %v", err)
	}
}
