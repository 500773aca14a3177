package xgroup

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dbsm"
)

// byTable classifies a tuple by its table number: table g belongs to group
// g, table 0 is the catalog.
func byTable(id dbsm.TupleID) int { return int(id.Table()) }

// splitRef is Split as it was first written — every part's sets grown by
// append — kept as the reference the counted, single-array form must equal.
func splitRef(t *dbsm.TxnCert, classify func(dbsm.TupleID) int, home int) []Part {
	parts := make([]Part, 0, 2)
	get := func(g int) *Part {
		if g == 0 {
			g = home
		}
		for i := range parts {
			if parts[i].Group == g {
				return &parts[i]
			}
		}
		parts = append(parts, Part{Group: g, Cert: dbsm.TxnCert{TID: t.TID, Site: t.Site, LastCommitted: t.LastCommitted}})
		return &parts[len(parts)-1]
	}
	get(home)
	for _, r := range t.ReadSet {
		p := get(classify(r))
		p.Cert.ReadSet = append(p.Cert.ReadSet, r)
	}
	for _, w := range t.WriteSet {
		p := get(classify(w))
		p.Cert.WriteSet = append(p.Cert.WriteSet, w)
	}
	if nw := len(t.WriteSet); nw > 0 {
		assigned := 0
		for i := range parts {
			wb := t.WriteBytes * len(parts[i].Cert.WriteSet) / nw
			parts[i].Cert.WriteBytes = wb
			assigned += wb
		}
		parts[0].Cert.WriteBytes += t.WriteBytes - assigned
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Group < parts[j].Group })
	return parts
}

// appendPrepareRef is AppendPrepare as it was first written: the trimmed
// padding of every part worked out up front, each part marshaled on its own.
func appendPrepareRef(buf []byte, lead byte, p *Prepare, maxSize int) []byte {
	total := 1 + prepareHeader
	for i := range p.Parts {
		total += partHeader + p.Parts[i].Cert.MarshaledSize()
	}
	excess := 0
	if maxSize > 0 && total > maxSize {
		excess = total - maxSize
	}
	pads := make([]int, len(p.Parts))
	for i := range p.Parts {
		pads[i] = p.Parts[i].Cert.WriteBytes
	}
	for i := len(pads) - 1; i >= 0 && excess > 0; i-- {
		cut := min(excess, pads[i])
		pads[i] -= cut
		excess -= cut
	}
	buf = append(buf, lead)
	buf = binary.BigEndian.AppendUint64(buf, p.TID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Coordinator))
	buf = append(buf, byte(p.HomeGroup), byte(len(p.Parts)))
	for i := range p.Parts {
		c := p.Parts[i].Cert
		c.WriteBytes = pads[i]
		body := c.Marshal()
		buf = append(buf, byte(p.Parts[i].Group))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Parts[i].Cert.WriteBytes))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
		buf = append(buf, body...)
	}
	return buf
}

func tuples(ids ...[2]int) dbsm.ItemSet {
	out := make([]dbsm.TupleID, len(ids))
	for i, id := range ids {
		out[i] = dbsm.MakeTupleID(uint16(id[0]), uint64(id[1]))
	}
	return dbsm.NewItemSet(out...)
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		name       string
		reads      dbsm.ItemSet
		writes     dbsm.ItemSet
		writeBytes int
		home       int
		groups     []int // expected parts, in order
		homeWB     int   // expected WriteBytes of the home part
	}{
		{"all home", tuples([2]int{2, 1}, [2]int{2, 2}), tuples([2]int{2, 1}), 100, 2, []int{2}, 100},
		{"no home tuple", tuples([2]int{1, 1}), tuples([2]int{3, 1}), 90, 2, []int{1, 2, 3}, 0},
		{"catalog folds into home", tuples([2]int{0, 7}, [2]int{3, 1}), tuples([2]int{0, 7}, [2]int{3, 1}), 101, 1, []int{1, 3}, 51},
		{"remainder on home", tuples(), tuples([2]int{1, 1}, [2]int{2, 1}, [2]int{3, 1}), 100, 3, []int{1, 2, 3}, 34},
		{"home sorts last", tuples([2]int{1, 1}), tuples([2]int{1, 1}, [2]int{3, 2}), 10, 3, []int{1, 3}, 5},
		{"read-only", tuples([2]int{1, 1}, [2]int{2, 1}), nil, 0, 1, []int{1, 2}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cert := &dbsm.TxnCert{TID: 9, Site: 4, LastCommitted: 33,
				ReadSet: tc.reads, WriteSet: tc.writes, WriteBytes: tc.writeBytes}
			parts := Split(cert, byTable, tc.home)
			if len(parts) != len(tc.groups) {
				t.Fatalf("got %d parts, want groups %v", len(parts), tc.groups)
			}
			for i, p := range parts {
				if p.Group != tc.groups[i] {
					t.Fatalf("part %d is group %d, want %v", i, p.Group, tc.groups)
				}
				if p.Group == tc.home && p.Cert.WriteBytes != tc.homeWB {
					t.Fatalf("home part carries %d write bytes, want %d", p.Cert.WriteBytes, tc.homeWB)
				}
			}
			checkSplit(t, cert, parts, tc.home)
		})
	}
}

// checkSplit holds a split to its contract and to the append-built reference.
func checkSplit(t *testing.T, cert *dbsm.TxnCert, parts []Part, home int) {
	t.Helper()
	ref := splitRef(cert, byTable, home)
	if len(parts) != len(ref) {
		t.Fatalf("%d parts, reference has %d", len(parts), len(ref))
	}
	wb, nr, nw, hasHome := 0, 0, 0, false
	for i := range parts {
		p := &parts[i]
		if !sameCert(&p.Cert, &ref[i].Cert) || p.Group != ref[i].Group {
			t.Fatalf("part %d = %d %+v, reference %d %+v", i, p.Group, p.Cert, ref[i].Group, ref[i].Cert)
		}
		if i > 0 && parts[i-1].Group >= p.Group {
			t.Fatalf("parts out of group order at %d", i)
		}
		for _, set := range []dbsm.ItemSet{p.Cert.ReadSet, p.Cert.WriteSet} {
			if !slices.IsSorted(set) {
				t.Fatalf("part %d: set not sorted: %v", i, set)
			}
			for _, id := range set {
				if g := byTable(id); g != p.Group && !(g == 0 && p.Group == home) {
					t.Fatalf("part %d (group %d) holds a tuple of group %d", i, p.Group, g)
				}
			}
		}
		wb += p.Cert.WriteBytes
		nr += len(p.Cert.ReadSet)
		nw += len(p.Cert.WriteSet)
		hasHome = hasHome || p.Group == home
	}
	if !hasHome {
		t.Fatal("no home part")
	}
	if nr != len(cert.ReadSet) || nw != len(cert.WriteSet) {
		t.Fatalf("parts hold %d reads and %d writes of %d and %d", nr, nw, len(cert.ReadSet), len(cert.WriteSet))
	}
	if len(cert.WriteSet) > 0 && wb != cert.WriteBytes {
		t.Fatalf("write bytes sum to %d, want %d", wb, cert.WriteBytes)
	}
}

// TestSplitAndEncodeMatchReference: on random transactions the split equals
// the append-built one, allocates the parts and one array, and the prepare
// built from it encodes to the reference's bytes at every trimming bound.
func TestSplitAndEncodeMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randomSet := func(n int) dbsm.ItemSet {
		ids := make([]dbsm.TupleID, n)
		for i := range ids {
			ids[i] = dbsm.MakeTupleID(uint16(rng.Intn(5)), uint64(rng.Intn(40)))
		}
		return dbsm.NewItemSet(ids...)
	}
	for round := 0; round < 300; round++ {
		cert := &dbsm.TxnCert{TID: uint64(round), Site: 2, LastCommitted: uint64(rng.Intn(100)),
			ReadSet: randomSet(rng.Intn(30)), WriteSet: randomSet(rng.Intn(12)), WriteBytes: rng.Intn(5000)}
		home := 1 + rng.Intn(4)
		parts := Split(cert, byTable, home)
		checkSplit(t, cert, parts, home)

		p := &Prepare{TID: cert.TID, Coordinator: 2, HomeGroup: home, Parts: parts}
		full := len(appendPrepareRef(nil, MsgPrepare, p, 0))
		for _, maxSize := range []int{0, full, full - 1, full - rng.Intn(full), 64} {
			want := appendPrepareRef([]byte{0xAA}, MsgPrepare, p, maxSize)
			got := AppendPrepare([]byte{0xAA}, MsgPrepare, p, maxSize)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d, maxSize %d: encoding differs from the reference (%d vs %d bytes)", round, maxSize, len(got), len(want))
			}
			back, err := ParsePrepare(got[2:])
			if err != nil || len(back.Parts) != len(parts) {
				t.Fatalf("round %d, maxSize %d: %v", round, maxSize, err)
			}
			for i := range parts {
				if !sameCert(&back.Parts[i].Cert, &parts[i].Cert) {
					t.Fatalf("round %d, maxSize %d: part %d did not survive the wire", round, maxSize, i)
				}
			}
		}
	}

	cert := &dbsm.TxnCert{TID: 1, Site: 2, ReadSet: randomSet(30), WriteSet: randomSet(12), WriteBytes: 900}
	var parts []Part
	if n := testing.AllocsPerRun(100, func() { parts = Split(cert, byTable, 1) }); n > 3 {
		t.Fatalf("Split allocates %v times, want the parts (grown once past two) and one tuple array", n)
	}
	p := &Prepare{TID: 1, Coordinator: 2, HomeGroup: 1, Parts: parts}
	buf := AppendPrepare(nil, MsgPrepare, p, 0)
	if n := testing.AllocsPerRun(100, func() { buf = AppendPrepare(buf[:0], MsgPrepare, p, 1400) }); n != 0 {
		t.Fatalf("AppendPrepare onto a sized buffer allocates %v times", n)
	}
}
