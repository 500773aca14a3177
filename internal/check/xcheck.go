package check

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dbsm"
	"repro/internal/trace"
)

// GroupXLog is one replication group's canonical stream of cross-group
// transaction resolutions, taken from the group's lowest-numbered operational
// site. Within a group the ordinary commit-log check already forces every
// operational site to agree on the certified order, so one stream per group
// suffices for the cross-group conditions.
type GroupXLog struct {
	Group   int
	Site    dbsm.SiteID // the canonical site the stream was taken from
	Records []trace.XRecord
}

// CrossGroup verifies the two safety conditions specific to partial
// replication and returns the first violation, or nil:
//
//  1. Atomicity — every group that resolved a cross-group transaction
//     resolved it the same way. A transaction still in flight at the end of
//     the run may be missing from some groups' streams; only conflicting
//     decisions are violations.
//  2. Serialization — the committed cross-group transactions admit a single
//     serial order consistent with every group's install order. Each group
//     orders its committed records by install sequence, and a cycle among
//     conflicting transactions in those orders means the groups interleaved
//     them inconsistently (see xSerialization).
//
// Per-group one-copy serializability is checked separately by Logs; this
// checker only compares across groups.
func CrossGroup(groups []GroupXLog) *Violation {
	ordered := make([]GroupXLog, len(groups))
	copy(ordered, groups)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Group < ordered[j].Group })

	sc := takeScratch()
	defer scratches.Put(sc)

	// A group recording the same transaction twice poisons both conditions.
	for _, g := range ordered {
		first, i := sc.firstRepeat(len(g.Records), func(i int) uint64 { return g.Records[i].TID })
		if i >= 0 {
			return &Violation{
				Kind: KindDuplicate, Site: g.Site, Ref: g.Site, Group: g.Group, Pos: i,
				Detail: fmt.Sprintf("tid=%x resolved at position %d and again at position %d",
					g.Records[i].TID, first, i),
			}
		}
	}

	if v := xAtomicity(ordered, &sc.first); v != nil {
		return v
	}
	return xSerialization(ordered, &sc.x)
}

// xDecision is a transaction's first resolution among the groups' records,
// in first's table: set is always true, so no decision is the empty cell.
type xDecision struct {
	group  int
	set    bool
	commit bool
}

// xAtomicity flags a transaction decided differently by two groups. first
// is the table of each TID's first decision, emptied here.
func xAtomicity(ordered []GroupXLog, first *dbsm.TupleMap[xDecision]) *Violation {
	first.Clear()
	for _, g := range ordered {
		for i, r := range g.Records {
			k := dbsm.TupleID(r.TID)
			d := first.Get(k)
			if !d.set {
				first.Put(k, xDecision{group: g.Group, set: true, commit: r.Commit})
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

// xSerialization reports a cycle in the cross-group serialization graph: its
// nodes are the committed transactions, and it has an edge A→B when A
// installed before B in some group and their group-local sets conflict (as
// xConflict decides). It draws only part of those edges, one pass per group:
//
//   - Install order is the group's committed records stably sorted by Seq.
//     A write-free part has Seq 0, so the sort places it before every writer
//     of its group, whatever it read: a part that read writer A's write is
//     still ordered before A, and a real cycle through that read goes
//     unseen. The rule is kept as it is so that no verdict moves.
//   - Per tuple, a read draws an edge from the last write, and a write draws
//     one from each read since the last write, or from the last write when
//     nothing read the tuple since.
//   - A table lock accesses every tuple of its table, with Intersects' rules:
//     a lock in a write-set conflicts with every access to the table, and a
//     lock in a read-set with every write in it. Per table that some set of
//     the group locks, an access draws an edge from the last write-lock; a
//     write-lock draws one from every access since it, a read-lock from every
//     tuple write since it, and a tuple write from every read-lock since it.
//
// Every edge drawn joins two accesses that conflict, so it is in the graph.
// Every edge of the graph is implied by a path of drawn edges on the same
// tuple or table: consecutive writes are joined directly or through the
// reads between them, a read is joined to the write before it and the write
// after it, and accesses to a locked table are joined through the
// write-locks between them. So the drawn edges have a cycle exactly when the
// graph does, and the check costs time linear in the sets' sizes when no set
// holds a table lock; only read-locks interleaved with tuple writes of one
// table, with no write-lock between, draw an edge per pair.
func xSerialization(ordered []GroupXLog, x *xIndex) *Violation {
	x.reset()
	for i := range ordered {
		x.draw(ordered[i].Records)
	}
	a, b, found := x.cycle()
	if !found {
		return nil
	}
	// A two-transaction cycle has edges both ways, so the verdict names the
	// two groups that installed the pair in opposite orders. A longer cycle
	// need not have the reverse edge, so only the closing edge's group is
	// named and the detail is worded for the general case.
	g1, _ := installedBefore(ordered, a, b)
	g2, twoCycle := installedBefore(ordered, b, a)
	detail := fmt.Sprintf("tid=%x and tid=%x conflict and installed in opposite orders (cycle of conflicting cross-group commits)",
		a, b)
	if !twoCycle {
		g2 = g1
		detail = fmt.Sprintf("tid=%x and tid=%x close a cycle of conflicting cross-group commits (no single serial order over the groups' install orders)",
			a, b)
	}
	return &Violation{
		Kind: KindCrossCycle,
		Site: dbsm.SiteID(g1), Ref: dbsm.SiteID(g2),
		Group: g1, Pos: -1,
		Detail: detail,
	}
}

// installedBefore returns the first group in which the committed records of
// transactions a and b conflict and a installed before b.
func installedBefore(ordered []GroupXLog, a, b uint64) (group int, ok bool) {
	for _, g := range ordered {
		ia, ib := -1, -1
		for i := range g.Records {
			switch r := &g.Records[i]; {
			case !r.Commit:
			case r.TID == a:
				ia = i
			case r.TID == b:
				ib = i
			}
		}
		if ia < 0 || ib < 0 {
			continue
		}
		ra, rb := &g.Records[ia], &g.Records[ib]
		if (ra.Seq < rb.Seq || ra.Seq == rb.Seq && ia < ib) && xConflict(ra, rb) {
			return g.Group, true
		}
	}
	return 0, false
}

// xConflict reports whether two committed records' group-local sets conflict
// (write-write, write-read, or read-write).
func xConflict(a, b *trace.XRecord) bool {
	return a.WriteSet.Intersects(b.WriteSet) ||
		a.WriteSet.Intersects(b.ReadSet) ||
		a.ReadSet.Intersects(b.WriteSet)
}

// xIndex is xSerialization's storage: the per-tuple and per-table access
// index of the group being drawn, emptied per group, and the graph drawn
// from all groups. Within a group a record is named by its install
// position, and an index entry holds a position+1, so that 0 means none.
type xIndex struct {
	recs   []trace.XRecord // the group being drawn
	order  []int32         // its committed records' indices in recs, in install order
	nodeOf []int32         // per install position: node+1, 0 until the record has an edge

	tuples dbsm.TupleMap[tupleAccess]
	locked dbsm.TupleMap[int32] // table lock → tables index+1, for each table a set of the group locks
	tables []tableAccess
	links  []accessLink // the chains of accesses since a write, for tuples and tables

	nodes dbsm.TupleMap[int32] // TID → node+1
	tids  []uint64             // node → TID
	edges []xEdge
	start []int32 // node v's successors are succ[start[v]:start[v+1]]
	succ  []int32
	color []uint8
	stack []xFrame
}

// tupleAccess is one tuple's last write and the chain of reads since it.
type tupleAccess struct {
	writer, reads int32
}

// tableAccess is one locked table's last write-lock and the chains of
// accesses since it: read-locks, tuple writes and tuple reads.
type tableAccess struct {
	lastX            int32
	shared, ix, read int32
}

// accessLink is one access in a chain: an install position and the link
// (index+1 in links) of the access before it.
type accessLink struct {
	pos, next int32
}

type xEdge struct {
	from, to int32
}

type xFrame struct {
	node, next int32
}

// reset empties the graph.
func (x *xIndex) reset() {
	x.nodes.Clear()
	x.tids = x.tids[:0]
	x.edges = x.edges[:0]
}

// draw adds the edges of one group's stream.
func (x *xIndex) draw(recs []trace.XRecord) {
	x.recs = recs
	x.order = x.order[:0]
	for i := range recs {
		if recs[i].Commit {
			x.order = append(x.order, int32(i))
		}
	}
	// Indices are unique and were appended in stream order, so ordering by
	// (Seq, index) is the stable sort by Seq.
	slices.SortFunc(x.order, func(a, b int32) int {
		if c := cmp.Compare(recs[a].Seq, recs[b].Seq); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	x.nodeOf = slices.Grow(x.nodeOf[:0], len(x.order))[:len(x.order)]
	clear(x.nodeOf)
	x.tuples.Clear()
	x.locked.Clear()
	x.tables = x.tables[:0]
	x.links = x.links[:0]

	for _, i := range x.order {
		x.markLocks(recs[i].ReadSet)
		x.markLocks(recs[i].WriteSet)
	}
	for p, i := range x.order {
		r := &recs[i]
		// Reads first: a record that reads and writes a tuple draws the
		// edge from the write before it at its read.
		x.tupleLeg(int32(p), r.ReadSet, false)
		x.tupleLeg(int32(p), r.WriteSet, true)
		if len(x.tables) > 0 {
			x.tableLeg(int32(p), r.ReadSet, false)
			x.tableLeg(int32(p), r.WriteSet, true)
		}
	}
	x.recs = nil
}

// markLocks gives each table that set locks an entry in tables.
func (x *xIndex) markLocks(set dbsm.ItemSet) {
	for _, id := range set {
		if id.IsTableLock() && x.locked.Get(id) == 0 {
			x.tables = append(x.tables, tableAccess{})
			x.locked.Put(id, int32(len(x.tables)))
		}
	}
}

// tupleLeg draws the edges into the record at install position p from its
// accesses to single tuples.
func (x *xIndex) tupleLeg(p int32, set dbsm.ItemSet, write bool) {
	for _, id := range set {
		if id.IsTableLock() {
			continue
		}
		a := x.tuples.Get(id)
		switch {
		case !write:
			if a.writer != 0 {
				x.edge(a.writer-1, p)
			}
			a.reads = x.link(p, a.reads)
		case a.reads != 0:
			// Each read since the last write has an edge from it.
			x.edgesFrom(a.reads, p)
			a = tupleAccess{writer: p + 1}
		default:
			if a.writer != 0 {
				x.edge(a.writer-1, p)
			}
			a = tupleAccess{writer: p + 1}
		}
		x.tuples.Put(id, a)
	}
}

// tableLeg draws the edges into the record at install position p from its
// accesses to locked tables: set's tuples of a table, or its lock on it.
func (x *xIndex) tableLeg(p int32, set dbsm.ItemSet, write bool) {
	for i := 0; i < len(set); {
		table := set[i].Table()
		j := i + 1
		for j < len(set) && set[j].Table() == table {
			j++
		}
		// A lock sorts after every tuple of its table.
		lock := set[j-1].IsTableLock()
		i = j
		k := x.locked.Get(dbsm.MakeTableLock(table))
		if k == 0 {
			continue
		}
		t := &x.tables[k-1]
		if t.lastX != 0 {
			x.edge(t.lastX-1, p)
		}
		switch {
		case write && lock:
			x.edgesFrom(t.shared, p)
			x.edgesFrom(t.ix, p)
			x.edgesFrom(t.read, p)
			*t = tableAccess{lastX: p + 1}
		case write:
			x.edgesFrom(t.shared, p)
			t.ix = x.link(p, t.ix)
		case lock:
			x.edgesFrom(t.ix, p)
			t.shared = x.link(p, t.shared)
		default:
			t.read = x.link(p, t.read)
		}
	}
}

// link adds the access at install position p in front of chain next and
// returns the new chain.
func (x *xIndex) link(p, next int32) int32 {
	x.links = append(x.links, accessLink{pos: p, next: next})
	return int32(len(x.links))
}

// edgesFrom draws an edge into p from every access of a chain but p's own.
func (x *xIndex) edgesFrom(chain, p int32) {
	for l := chain; l != 0; l = x.links[l-1].next {
		if q := x.links[l-1].pos; q != p {
			x.edge(q, p)
		}
	}
}

// edge draws an edge between the records at two install positions.
func (x *xIndex) edge(from, to int32) {
	x.edges = append(x.edges, xEdge{x.node(from), x.node(to)})
}

// node returns the graph node of the record at install position p.
func (x *xIndex) node(p int32) int32 {
	if n := x.nodeOf[p]; n != 0 {
		return n - 1
	}
	tid := dbsm.TupleID(x.recs[x.order[p]].TID)
	n := x.nodes.Get(tid)
	if n == 0 {
		x.tids = append(x.tids, uint64(tid))
		n = int32(len(x.tids))
		x.nodes.Put(tid, n)
	}
	x.nodeOf[p] = n
	return n - 1
}

// cycle finds a cycle in the drawn graph by an iterative three-color
// depth-first search, and returns the TIDs of the edge that closes it. Roots
// and successors are visited in the order edges were drawn, so the answer is
// a function of the groups' streams.
func (x *xIndex) cycle() (from, to uint64, found bool) {
	n := len(x.tids)
	x.start = slices.Grow(x.start[:0], n+1)[:n+1]
	clear(x.start)
	for _, e := range x.edges {
		x.start[e.from+1]++
	}
	for v := range n {
		x.start[v+1] += x.start[v]
	}
	x.succ = slices.Grow(x.succ[:0], len(x.edges))[:len(x.edges)]
	for _, e := range x.edges {
		x.succ[x.start[e.from]] = e.to
		x.start[e.from]++
	}
	// Each start[v] has moved on to start[v+1]: move them back.
	copy(x.start[1:], x.start[:n])
	x.start[0] = 0

	const (
		white = 0
		gray  = 1
		black = 2
	)
	x.color = slices.Grow(x.color[:0], n)[:n]
	clear(x.color)
	for root := range int32(n) {
		if x.color[root] != white {
			continue
		}
		x.stack = append(x.stack[:0], xFrame{node: root, next: x.start[root]})
		x.color[root] = gray
		for len(x.stack) > 0 {
			f := &x.stack[len(x.stack)-1]
			if f.next == x.start[f.node+1] {
				x.color[f.node] = black
				x.stack = x.stack[:len(x.stack)-1]
				continue
			}
			next := x.succ[f.next]
			f.next++
			switch x.color[next] {
			case white:
				x.color[next] = gray
				x.stack = append(x.stack, xFrame{node: next, next: x.start[next]})
			case gray:
				return x.tids[f.node], x.tids[next], true
			}
		}
	}
	return 0, 0, false
}
