package check

// CrossGroup's serialization check draws only the edges between consecutive
// conflicting accesses. These tests hold it to the graph of every
// conflicting pair, kept here as the reference it replaced.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dbsm"
	"repro/internal/trace"
)

// pairwiseEdges calls visit for every edge of the cross-group serialization
// graph, group by group: a pair of committed records of one group whose sets
// conflict, the earlier in install order (the stable sort by Seq) first.
func pairwiseEdges(ordered []GroupXLog, visit func(a, b uint64, group int)) {
	for _, g := range ordered {
		committed := make([]trace.XRecord, 0, len(g.Records))
		for _, r := range g.Records {
			if r.Commit {
				committed = append(committed, r)
			}
		}
		sort.SliceStable(committed, func(i, j int) bool { return committed[i].Seq < committed[j].Seq })
		for i := range committed {
			for j := i + 1; j < len(committed); j++ {
				if xConflict(&committed[i], &committed[j]) {
					visit(committed[i].TID, committed[j].TID, g.Group)
				}
			}
		}
	}
}

// refAtomicity is xAtomicity with a Go map of first decisions, as it was
// first written.
func refAtomicity(ordered []GroupXLog) *Violation {
	type decision struct {
		group  int
		commit bool
	}
	first := make(map[uint64]decision)
	for _, g := range ordered {
		for i, r := range g.Records {
			d, ok := first[r.TID]
			if !ok {
				first[r.TID] = decision{group: g.Group, commit: r.Commit}
				continue
			}
			if d.commit != r.Commit {
				verdict := func(c bool) string {
					if c {
						return "committed"
					}
					return "aborted"
				}
				return &Violation{
					Kind: KindAtomicity,
					Site: dbsm.SiteID(d.group), Ref: dbsm.SiteID(g.Group),
					Group: d.group, Pos: i,
					Detail: fmt.Sprintf("tid=%x %s in group %d but %s in group %d",
						r.TID, verdict(d.commit), d.group, verdict(r.Commit), g.Group),
				}
			}
		}
	}
	return nil
}

// refCrossGroup is CrossGroup with the pairwise graph: it returns the first
// violation, as CrossGroup words it, and the first group that drew each edge
// of the graph.
func refCrossGroup(groups []GroupXLog) (*Violation, map[[2]uint64]int) {
	ordered := make([]GroupXLog, len(groups))
	copy(ordered, groups)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Group < ordered[j].Group })
	for _, g := range ordered {
		seen := make(map[uint64]int, len(g.Records))
		for i, r := range g.Records {
			if first, dup := seen[r.TID]; dup {
				return &Violation{
					Kind: KindDuplicate, Site: g.Site, Ref: g.Site, Group: g.Group, Pos: i,
					Detail: fmt.Sprintf("tid=%x resolved at position %d and again at position %d",
						r.TID, first, i),
				}, nil
			}
			seen[r.TID] = i
		}
	}
	if v := refAtomicity(ordered); v != nil {
		return v, nil
	}

	succ := make(map[uint64][]uint64)
	var tids []uint64
	edgeGroup := make(map[[2]uint64]int)
	pairwiseEdges(ordered, func(a, b uint64, group int) {
		for _, t := range []uint64{a, b} {
			if _, ok := succ[t]; !ok {
				succ[t] = nil
				tids = append(tids, t)
			}
		}
		succ[a] = append(succ[a], b)
		if _, ok := edgeGroup[[2]uint64{a, b}]; !ok {
			edgeGroup[[2]uint64{a, b}] = group
		}
	})
	// Recursive three-color search: any cycle will do, since CrossGroup
	// may name a different one.
	color := make(map[uint64]int)
	var visit func(t uint64) bool
	visit = func(t uint64) bool {
		color[t] = 1
		for _, n := range succ[t] {
			if color[n] == 1 || color[n] == 0 && visit(n) {
				return true
			}
		}
		color[t] = 2
		return false
	}
	for _, t := range tids {
		if color[t] == 0 && visit(t) {
			return &Violation{Kind: KindCrossCycle, Pos: -1}, edgeGroup
		}
	}
	return nil, edgeGroup
}

// checkAgainstReference fails t unless CrossGroup and the pairwise
// reference agree on groups: the same nil or non-nil result and the same
// Kind; a duplicate or atomicity verdict identical; and a cycle verdict
// naming an edge of the pairwise graph, with the groups and the wording
// the pairwise checker gave that pair.
func checkAgainstReference(t *testing.T, groups []GroupXLog) {
	t.Helper()
	got := CrossGroup(groups)
	want, edgeGroup := refCrossGroup(groups)
	if (got == nil) != (want == nil) {
		t.Fatalf("CrossGroup = %v, pairwise reference = %v", got, want)
	}
	if got == nil {
		return
	}
	if got.Kind != want.Kind {
		t.Fatalf("CrossGroup kind %v, pairwise reference %v (%v)", got.Kind, want.Kind, got)
	}
	if got.Kind != KindCrossCycle {
		if *got != *want {
			t.Fatalf("CrossGroup = %+v, pairwise reference = %+v", *got, *want)
		}
		return
	}
	var a, b uint64
	if _, err := fmt.Sscanf(got.Detail, "tid=%x and tid=%x", &a, &b); err != nil {
		t.Fatalf("cycle detail %q names no pair: %v", got.Detail, err)
	}
	g1, ok := edgeGroup[[2]uint64{a, b}]
	if !ok {
		t.Fatalf("cycle verdict %v names tid=%x→tid=%x, not an edge of the pairwise graph", got, a, b)
	}
	g2, twoCycle := edgeGroup[[2]uint64{b, a}]
	if !twoCycle {
		g2 = g1
	}
	if got.Group != g1 || got.Site != dbsm.SiteID(g1) || got.Ref != dbsm.SiteID(g2) {
		t.Fatalf("cycle verdict %v names groups %d/%d/%d, want %d vs %d", got, got.Group, got.Site, got.Ref, g1, g2)
	}
	if strings.Contains(got.Detail, "opposite orders") != twoCycle {
		t.Fatalf("cycle verdict %q: reverse edge present = %v", got.Detail, twoCycle)
	}
}

// fuzzGroups decodes data into the streams of 1–4 groups. Byte 0 sets the
// number of groups; then each record is a header byte (group, Seq, commit),
// a TID byte, a size byte (up to three reads and three writes) and one byte
// per item: one bit of table, three of row, row 7 being a lock on the whole
// table. Seq 0 is a write-free part's; the small TID space makes the same
// transaction recur across groups.
func fuzzGroups(data []byte) []GroupXLog {
	if len(data) == 0 {
		return nil
	}
	groups := make([]GroupXLog, int(data[0])%4+1)
	for g := range groups {
		groups[g] = GroupXLog{Group: g + 1, Site: dbsm.SiteID(3*g + 1)}
	}
	data = data[1:]
	items := func(k int) dbsm.ItemSet {
		var ids []dbsm.TupleID
		for ; k > 0 && len(data) > 0; k-- {
			table, row := uint16(data[0]>>7), uint64(data[0]&7)
			if row == 7 {
				ids = append(ids, dbsm.MakeTableLock(table))
			} else {
				ids = append(ids, dbsm.MakeTupleID(table, row))
			}
			data = data[1:]
		}
		return dbsm.NewItemSet(ids...)
	}
	for len(data) >= 3 {
		head, tid, sizes := data[0], data[1], data[2]
		data = data[3:]
		g := &groups[int(head&3)%len(groups)]
		// A TID repeats within a group on one record in sixteen, or the
		// duplicate verdict would hide every other.
		if sizes>>4 != 0xf && slices.ContainsFunc(g.Records, func(r trace.XRecord) bool { return r.TID == uint64(tid%24)+1 }) {
			continue
		}
		r := trace.XRecord{
			TID:    uint64(tid%24) + 1,
			Group:  g.Group,
			Commit: head>>4 != 0xf,
			Seq:    uint64(head>>2) & 7,
		}
		r.ReadSet = items(int(sizes&3) % 4)
		r.WriteSet = items(int(sizes>>2&3) % 4)
		g.Records = append(g.Records, r)
	}
	return groups
}

// seedCorpus is FuzzCrossGroup's seed corpus: 256 inputs from a fixed
// source.
func seedCorpus() [][]byte {
	rng := rand.New(rand.NewSource(40))
	out := make([][]byte, 256)
	for i := range out {
		out[i] = make([]byte, 1+rng.Intn(200))
		rng.Read(out[i])
	}
	return out
}

// FuzzCrossGroup holds CrossGroup to the pairwise reference on streams with
// tuple and table-lock items, write-free parts and repeated TIDs.
func FuzzCrossGroup(f *testing.F) {
	for _, data := range seedCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, fuzzGroups(data))
	})
}

// TestFuzzCorpusReachesEveryVerdict: the fixed seed corpus produces every
// verdict FuzzCrossGroup compares, cycles among them, so the plain test run
// exercises each.
func TestFuzzCorpusReachesEveryVerdict(t *testing.T) {
	kinds := map[Kind]int{}
	for _, data := range seedCorpus() {
		v := CrossGroup(fuzzGroups(data))
		if v == nil {
			kinds[0]++
		} else {
			kinds[v.Kind]++
		}
	}
	for _, k := range []Kind{0, KindDuplicate, KindAtomicity, KindCrossCycle} {
		if kinds[k] == 0 {
			t.Errorf("no corpus input gives verdict %v (tally %v)", k, kinds)
		}
	}
}

// TestCrossGroupEdgesLinear: 4 096 committed records of one group all write
// one tuple. The pairwise graph has an edge per pair; the drawn graph stays
// within one edge per item of the sets.
func TestCrossGroupEdgesLinear(t *testing.T) {
	const n = 4096
	x := dbsm.MakeTupleID(5, 42)
	recs := make([]trace.XRecord, n)
	items := 0
	for i := range recs {
		recs[i] = xrec(uint64(i+1), true, uint64(i+1), nil, []dbsm.TupleID{x})
		items += len(recs[i].ReadSet) + len(recs[i].WriteSet)
	}
	groups := []GroupXLog{{Group: 1, Site: 1, Records: recs}}

	var ix xIndex
	if v := xSerialization(groups, &ix); v != nil {
		t.Fatalf("one group's stream flagged: %v", v)
	}
	if len(ix.edges) > items {
		t.Errorf("drew %d edges for %d items", len(ix.edges), items)
	}
	pairs := 0
	pairwiseEdges(groups, func(uint64, uint64, int) { pairs++ })
	if pairs != n*(n-1)/2 {
		t.Errorf("pairwise graph has %d edges, want %d", pairs, n*(n-1)/2)
	}
}

// TestCrossCycleThroughTableLock: in group 1 the pair conflicts only
// through a table lock, in group 2 through a tuple, and the two groups
// install it in opposite orders.
func TestCrossCycleThroughTableLock(t *testing.T) {
	const table = 4
	lock := dbsm.MakeTableLock(table)
	row := dbsm.MakeTupleID(table, 5)
	other := dbsm.MakeTupleID(9, 1)
	shared := dbsm.MakeTupleID(7, 1)
	cases := []struct {
		name string
		a, b trace.XRecord // group 1 installs a, then b
	}{
		{
			name: "read-lock before a tuple write",
			a:    xrec(0xa, true, 1, []dbsm.TupleID{lock}, []dbsm.TupleID{other}),
			b:    xrec(0xb, true, 2, nil, []dbsm.TupleID{row}),
		},
		{
			name: "write-lock before a tuple read",
			a:    xrec(0xa, true, 1, nil, []dbsm.TupleID{lock}),
			b:    xrec(0xb, true, 2, []dbsm.TupleID{row}, []dbsm.TupleID{other}),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			groups := []GroupXLog{
				{Group: 1, Site: 1, Records: []trace.XRecord{c.a, c.b}},
				{Group: 2, Site: 4, Records: []trace.XRecord{
					xrec(0xb, true, 1, nil, []dbsm.TupleID{shared}),
					xrec(0xa, true, 2, nil, []dbsm.TupleID{shared}),
				}},
			}
			v := CrossGroup(groups)
			if v == nil || v.Kind != KindCrossCycle {
				t.Fatalf("want cross-group cycle, got %v", v)
			}
			if !strings.Contains(v.Detail, "opposite orders") {
				t.Errorf("Detail = %q, missing opposite-orders wording", v.Detail)
			}
			checkAgainstReference(t, groups)
		})
	}
}

// TestConcurrentChecksShareNoStorage: checks running at once, as a parallel
// experiment runs them, each take their own shelved storage, and give the
// verdicts a serial run gives.
func TestConcurrentChecksShareNoStorage(t *testing.T) {
	corpus := seedCorpus()
	want := make([]*Violation, len(corpus))
	for i, data := range corpus {
		want[i] = CrossGroup(fuzzGroups(data))
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range corpus {
				got := CrossGroup(fuzzGroups(corpus[i]))
				if (got == nil) != (want[i] == nil) || got != nil && *got != *want[i] {
					t.Errorf("input %d: concurrent check %v, serial %v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
