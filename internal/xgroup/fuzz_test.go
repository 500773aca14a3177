package xgroup

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dbsm"
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

// FuzzParse feeds arbitrary bytes to the cross-group wire parsers, dispatched
// on the lead byte the way the replica's stream and relay handlers dispatch
// them. No input may panic, and whatever a parser accepts must survive the
// matching encoder: re-encoded and parsed again it yields the same message.
// The input is also pushed through FragmentPrepare as if it were an oversized
// prepare body — the frames must fit, parse, and reassemble byte-exactly.
func FuzzParse(f *testing.F) {
	small := bigPrepare(6)
	big := AppendPrepare(nil, MsgPrepare, bigPrepare(200), 0)
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
			p, err := ParsePrepare(body)
			if err != nil {
				return
			}
			// A hostile WriteBytes announces up to 4 GiB of padding; bounding
			// the re-encoding by the input size trims it, and the true value
			// still travels alongside.
			again, err := ParsePrepare(AppendPrepare(nil, MsgPrepare, p, len(data))[1:])
			if err != nil {
				t.Fatalf("re-parse of an accepted prepare: %v", err)
			}
			if again.TID != p.TID || again.Coordinator != p.Coordinator || again.HomeGroup != p.HomeGroup || len(again.Parts) != len(p.Parts) {
				t.Fatalf("prepare round trip: %+v became %+v", p, again)
			}
			for i := range p.Parts {
				if again.Parts[i].Group != p.Parts[i].Group || !sameCert(&again.Parts[i].Cert, &p.Parts[i].Cert) {
					t.Fatalf("prepare part %d round trip: %+v became %+v", i, p.Parts[i], again.Parts[i])
				}
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
