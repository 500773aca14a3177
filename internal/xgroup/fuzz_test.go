package xgroup

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/dbsm"
	"repro/internal/sim"
)

func sameCert(a, b *dbsm.TxnCert) bool {
	sameSet := func(x, y dbsm.ItemSet) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.TID == b.TID && a.Site == b.Site && a.LastCommitted == b.LastCommitted &&
		a.WriteBytes == b.WriteBytes && sameSet(a.ReadSet, b.ReadSet) && sameSet(a.WriteSet, b.WriteSet)
}

// samePrepare reports whether two prepares carry the same message.
func samePrepare(a, b *Prepare) bool {
	if a.TID != b.TID || a.Coordinator != b.Coordinator || a.HomeGroup != b.HomeGroup || len(a.Parts) != len(b.Parts) {
		return false
	}
	for i := range a.Parts {
		if a.Parts[i].Group != b.Parts[i].Group || !sameCert(&a.Parts[i].Cert, &b.Parts[i].Cert) {
			return false
		}
	}
	return true
}

// FuzzParse feeds arbitrary bytes to the cross-group wire parsers, dispatched
// on the lead byte the way the replica's stream and relay handlers dispatch
// them. No input may panic, and whatever a parser accepts must survive the
// matching encoder: re-encoded and parsed again it yields the same message.
// A prepare decoded by ParsePrepareInto into storage that holds an earlier,
// larger prepare's parts must be accepted or refused exactly as a decode
// into a fresh Prepare is, with the same error, and equal the fresh decode;
// each part's sets, copied into a dbsm.Arena the way the cross-group round
// keeps its own part, must equal the decoded part. The input is also pushed
// through FragmentPrepare as if it were an oversized prepare body — the
// frames must fit, parse, and reassemble byte-exactly.
func FuzzParse(f *testing.F) {
	small := bigPrepare(6)
	big := AppendPrepare(nil, MsgPrepare, bigPrepare(200), 0)
	// earlier is the prepare the warm storage holds before each decode: more
	// parts than most inputs announce, sets of several sizes.
	earlier := bigPrepare(40)
	earlier.Parts = append(earlier.Parts, bigPrepare(3).Parts...)
	earlierWire := AppendPrepare(nil, MsgPrepare, earlier, 0)[1:]
	seeds := [][]byte{
		AppendPrepare(nil, MsgPrepare, small, 0),
		AppendPrepare(nil, MsgPrepare, small, 256), // padding trimmed toward the bound
		AppendVote(nil, MsgVote, 77, 2, true),
		AppendVote(nil, MsgVote, 1<<40|3, 9, false),
		AppendDecision(nil, MsgDecide, 77, true),
		AppendAck(nil, MsgAck, 77, 3),
	}
	seeds = append(seeds, FragmentPrepare(big, 77, 512)...)
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{MsgPrepFrag, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})              // zero fragments announced
	f.Add([]byte{MsgPrepare, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 255}) // 255 parts, none present

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] {
		case MsgPrepare:
			p := new(Prepare)
			err := ParsePrepareInto(p, body)
			var warm Prepare
			if werr := ParsePrepareInto(&warm, earlierWire); werr != nil {
				t.Fatalf("warming the storage: %v", werr)
			}
			if werr := ParsePrepareInto(&warm, body); werr != err {
				t.Fatalf("decode into warm storage: error %v, a fresh decode's %v", werr, err)
			}
			if err != nil {
				return
			}
			if !samePrepare(&warm, p) {
				t.Fatalf("decode into warm storage: %+v, a fresh decode %+v", warm, *p)
			}
			var arena dbsm.Arena
			kept := make([]dbsm.TxnCert, len(warm.Parts))
			for i, pt := range warm.Parts {
				kept[i] = pt.Cert
				kept[i].ReadSet, _ = arena.Copy(pt.Cert.ReadSet)
				kept[i].WriteSet, _ = arena.Copy(pt.Cert.WriteSet)
			}
			for i := range kept {
				if !sameCert(&kept[i], &p.Parts[i].Cert) {
					t.Fatalf("part %d's arena copy %+v, the decoded part %+v", i, kept[i], p.Parts[i].Cert)
				}
			}
			// A hostile WriteBytes announces up to 4 GiB of padding; bounding
			// the re-encoding by the input size trims it, and the true value
			// still travels alongside.
			again := new(Prepare)
			if err := ParsePrepareInto(again, AppendPrepare(nil, MsgPrepare, p, len(data))[1:]); err != nil {
				t.Fatalf("re-parse of an accepted prepare: %v", err)
			}
			if !samePrepare(again, p) {
				t.Fatalf("prepare round trip: %+v became %+v", p, again)
			}
		case MsgVote:
			tid, g, commit, err := ParseVote(body)
			if err != nil {
				return
			}
			tid2, g2, commit2, err := ParseVote(AppendVote(nil, MsgVote, tid, g, commit)[1:])
			if err != nil || tid2 != tid || g2 != g || commit2 != commit {
				t.Fatalf("vote round trip: (%d,%d,%v) became (%d,%d,%v), %v", tid, g, commit, tid2, g2, commit2, err)
			}
		case MsgDecide:
			tid, commit, err := ParseDecision(body)
			if err != nil {
				return
			}
			tid2, commit2, err := ParseDecision(AppendDecision(nil, MsgDecide, tid, commit)[1:])
			if err != nil || tid2 != tid || commit2 != commit {
				t.Fatalf("decision round trip: (%d,%v) became (%d,%v), %v", tid, commit, tid2, commit2, err)
			}
		case MsgAck:
			tid, g, err := ParseAck(body)
			if err != nil {
				return
			}
			tid2, g2, err := ParseAck(AppendAck(nil, MsgAck, tid, g)[1:])
			if err != nil || tid2 != tid || g2 != g {
				t.Fatalf("ack round trip: (%d,%d) became (%d,%d), %v", tid, g, tid2, g2, err)
			}
		case MsgPrepFrag:
			tid, total, idx, chunk, err := ParsePrepFrag(body)
			if err != nil {
				return
			}
			if total < 1 || total > MaxPrepFrags || idx < 0 || idx >= total {
				t.Fatalf("accepted fragment %d of %d", idx, total)
			}
			// The frame is its header plus the chunk, nothing lost.
			frame := binary.BigEndian.AppendUint64([]byte{MsgPrepFrag}, tid)
			frame = append(append(frame, byte(total), byte(idx)), chunk...)
			if !bytes.Equal(frame, data) {
				t.Fatalf("fragment fields do not rebuild the frame: %x vs %x", frame, data)
			}
		}

		// The same bytes as an oversized prepare encoding, at an MTU the
		// input picks.
		mtu := fragHeader + 1 + int(data[0])
		frames := FragmentPrepare(data, 9, mtu)
		if frames == nil {
			return // fits whole, or too large to fragment
		}
		var whole []byte
		for i, fr := range frames {
			if len(fr) > mtu || fr[0] != MsgPrepFrag {
				t.Fatalf("frame %d: %d bytes at MTU %d, lead %d", i, len(fr), mtu, fr[0])
			}
			tid, total, idx, chunk, err := ParsePrepFrag(fr[1:])
			if err != nil || tid != 9 || total != len(frames) || idx != i {
				t.Fatalf("frame %d parses as tid=%d %d/%d: %v", i, tid, idx, total, err)
			}
			whole = append(whole, chunk...)
		}
		if !bytes.Equal(whole, body) {
			t.Fatalf("fragments reassemble to %d bytes, want the %d-byte body", len(whole), len(body))
		}
	})
}

// TestRedecodePoisonsKeptParts: race builds fill every set a Prepare holds
// with all-ones before ParsePrepareInto decodes into it again, so a reader
// that kept a part's sets past the next decode reads garbage, even a part
// the next prepare has no counterpart for (one with fewer parts, which
// UnmarshalFrom never reaches); other builds leave them as they were.
func TestRedecodePoisonsKeptParts(t *testing.T) {
	var p Prepare
	if err := ParsePrepareInto(&p, AppendPrepare(nil, MsgPrepare, bigPrepare(8), 0)[1:]); err != nil {
		t.Fatal(err)
	}
	kept := []dbsm.ItemSet{p.Parts[1].Cert.ReadSet, p.Parts[1].Cert.WriteSet}
	one := bigPrepare(2)
	one.Parts = one.Parts[:1]
	if err := ParsePrepareInto(&p, AppendPrepare(nil, MsgPrepare, one, 0)[1:]); err != nil || len(p.Parts) != 1 {
		t.Fatalf("decoded %d parts: %v", len(p.Parts), err)
	}
	for i, s := range kept {
		poisoned := !slices.ContainsFunc(s, func(id dbsm.TupleID) bool { return id != ^dbsm.TupleID(0) })
		if poisoned != sim.RaceBuild {
			t.Errorf("kept set %d of a part the redecode did not reach: %v, poisoned = %v, want %v", i, s, poisoned, sim.RaceBuild)
		}
	}
}
