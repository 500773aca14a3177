package xgroup

import (
	"bytes"
	"testing"

	"repro/internal/dbsm"
)

// bigPrepare builds a prepare whose item sets alone (they cannot be padded
// away, unlike WriteBytes) push the encoding past small MTUs.
func bigPrepare(items int) *Prepare {
	rs := make([]dbsm.TupleID, items)
	for i := range rs {
		rs[i] = dbsm.MakeTupleID(uint16(1+i%7), uint64(i))
	}
	cert := dbsm.TxnCert{
		TID: 77, Site: 1, LastCommitted: 9,
		ReadSet:    dbsm.NewItemSet(rs...),
		WriteSet:   dbsm.NewItemSet(rs[:items/2]...),
		WriteBytes: 4096,
	}
	return &Prepare{
		TID:         77,
		Coordinator: 1,
		HomeGroup:   1,
		Parts:       []Part{{Group: 1, Cert: cert}, {Group: 2, Cert: cert}},
	}
}

// TestFragmentPrepareBoundary is the regression test for the oversize
// prepare hole: AppendPrepare can only shrink value padding, so a prepare
// whose item sets alone exceed the MTU used to leave the relay path with an
// unsendable frame. Fragmentation must kick in exactly past the MTU, emit
// frames that each fit, and reassemble byte-exactly.
func TestFragmentPrepareBoundary(t *testing.T) {
	p := bigPrepare(200)
	enc := AppendPrepare(nil, MsgPrepare, p, 0) // unpadded true size
	if len(enc) < 1000 {
		t.Fatalf("test prepare too small to exercise fragmentation: %d bytes", len(enc))
	}

	// At the boundary: a frame that exactly fits must not fragment.
	if frames := FragmentPrepare(enc, p.TID, len(enc)); frames != nil {
		t.Fatalf("fragmented an exactly-fitting frame into %d parts", len(frames))
	}
	// One byte past it must.
	maxSize := len(enc) - 1
	frames := FragmentPrepare(enc, p.TID, maxSize)
	if frames == nil {
		t.Fatal("no fragmentation one byte past the MTU")
	}

	for _, maxSize := range []int{maxSize, 1400, 600} {
		frames := FragmentPrepare(enc, p.TID, maxSize)
		if frames == nil {
			t.Fatalf("maxSize %d: no frames for a %d-byte prepare", maxSize, len(enc))
		}
		var whole []byte
		whole = append(whole, MsgPrepare)
		for i, f := range frames {
			if len(f) > maxSize {
				t.Fatalf("maxSize %d: frame %d is %d bytes", maxSize, i, len(f))
			}
			if f[0] != MsgPrepFrag {
				t.Fatalf("maxSize %d: frame %d lead byte %d", maxSize, i, f[0])
			}
			tid, total, index, chunk, err := ParsePrepFrag(f[1:])
			if err != nil {
				t.Fatalf("maxSize %d: frame %d: %v", maxSize, i, err)
			}
			if tid != p.TID || total != len(frames) || index != i {
				t.Fatalf("maxSize %d: frame %d header tid=%d total=%d index=%d", maxSize, i, tid, total, index)
			}
			whole = append(whole, chunk...)
		}
		if !bytes.Equal(whole, enc) {
			t.Fatalf("maxSize %d: reassembly differs: %d vs %d bytes", maxSize, len(whole), len(enc))
		}
		// The reassembled frame must parse back to the original prepare.
		var got Prepare
		if err := ParsePrepareInto(&got, whole[1:]); err != nil {
			t.Fatalf("maxSize %d: reassembled prepare: %v", maxSize, err)
		}
		if got.TID != p.TID || len(got.Parts) != len(p.Parts) {
			t.Fatalf("maxSize %d: reassembled prepare drifted: %+v", maxSize, got)
		}
	}
}

// TestFragmentPrepareLimits pins the refusal cases: frames too large for the
// fragment budget (MaxPrepFrags) return nil rather than emitting a frame the
// network would drop, and hostile fragment headers are rejected.
func TestFragmentPrepareLimits(t *testing.T) {
	p := bigPrepare(2000)
	enc := AppendPrepare(nil, MsgPrepare, p, 0)
	// A max size so small the prepare needs more than MaxPrepFrags chunks.
	tiny := fragHeader + (len(enc)-1)/(MaxPrepFrags+1)
	if frames := FragmentPrepare(enc, p.TID, tiny); frames != nil {
		t.Fatalf("got %d frames, want nil past the %d-fragment budget", len(frames), MaxPrepFrags)
	}

	if _, _, _, _, err := ParsePrepFrag(nil); err == nil {
		t.Fatal("ParsePrepFrag(nil) accepted")
	}
	if _, _, _, _, err := ParsePrepFrag(make([]byte, fragHeader-2)); err == nil {
		t.Fatal("truncated fragment header accepted")
	}
	bad := FragmentPrepare(enc, p.TID, 1400)[0][1:]
	bad[9] = bad[8] // index == total
	if _, _, _, _, err := ParsePrepFrag(bad); err == nil {
		t.Fatal("fragment with index >= total accepted")
	}
}
