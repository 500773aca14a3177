package dbsm

import (
	"encoding/binary"
	"errors"

	"repro/internal/sim"
)

// SiteID identifies a replica site (matches runtimeapi.NodeID numerically).
type SiteID int32

// MakeTID builds a globally unique transaction identifier from the
// originating site and a site-local counter.
func MakeTID(site SiteID, local uint32) uint64 {
	return uint64(uint32(site))<<32 | uint64(local)
}

// TIDSite extracts the originating site of a transaction identifier.
func TIDSite(tid uint64) SiteID { return SiteID(tid >> 32) }

// TxnCert is the information gathered when a transaction enters the
// committing stage and atomically multicast to all replicas (Section 3.3):
// identifiers of tuples read and written, the values of written tuples
// (represented by their total size; padding makes the wire message match
// real traffic), and the sequence number of the last transaction committed
// locally, which determines which transactions executed concurrently.
type TxnCert struct {
	// TID is the globally unique transaction identifier.
	TID uint64
	// Site is the originating replica.
	Site SiteID
	// LastCommitted is the certification sequence number of the last
	// transaction applied at Site when this transaction started.
	LastCommitted uint64
	// ReadSet and WriteSet are the sorted tuple identifier sets.
	ReadSet  ItemSet
	WriteSet ItemSet
	// WriteBytes is the total size of the written tuple values.
	WriteBytes int
}

const certHeader = 8 + 4 + 8 + 4 + 4 + 4

// MarshaledSize reports the wire size of the certification message,
// including value padding.
func (t *TxnCert) MarshaledSize() int {
	return certHeader + 8*(len(t.ReadSet)+len(t.WriteSet)) + t.WriteBytes
}

// zeroChunk is the shared source of value padding: MarshalTo copies from it
// instead of allocating WriteBytes of zeroes per message.
var zeroChunk [4096]byte

// Marshal encodes the certification message into a freshly allocated buffer.
// Hot paths should prefer MarshalTo with a reused scratch buffer.
func (t *TxnCert) Marshal() []byte {
	return t.MarshalTo(nil)
}

// MarshalTo encodes the certification message, appending to buf[:0] (buf may
// be nil) and reallocating only when buf's capacity is insufficient — so a
// caller-owned scratch buffer makes marshaling allocation-free. Written
// values are represented by zero padding of the appropriate length, sizing
// the message as in a real system; the padding is copied from a shared zero
// chunk rather than allocated per message.
//
// The returned slice aliases buf when it fits: the caller must finish using
// (or copying) the encoding before reusing the scratch.
func (t *TxnCert) MarshalTo(buf []byte) []byte {
	if n := t.MarshaledSize(); cap(buf) < n {
		// capacity miss grows the caller's scratch once, then amortised free
		buf = make([]byte, 0, n)
	}
	return t.AppendTo(buf[:0])
}

// AppendTo is the appending form of MarshalTo: the encoding goes after what
// buf already holds (a stream tag, the parts of a prepare before this one),
// and buf grows as append grows it.
func (t *TxnCert) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, t.TID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Site))
	buf = binary.BigEndian.AppendUint64(buf, t.LastCommitted)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.ReadSet)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.WriteSet)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.WriteBytes))
	for _, id := range t.ReadSet {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	for _, id := range t.WriteSet {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
	}
	for pad := t.WriteBytes; pad > 0; {
		c := min(pad, len(zeroChunk))
		buf = append(buf, zeroChunk[:c]...)
		pad -= c
	}
	return buf
}

// errBadCert reports a malformed certification message.
var errBadCert = errors.New("dbsm: malformed certification message")

// Unmarshal decodes a certification message into a fresh record that owns
// both of its sets. Paths that decode per delivery keep one record and call
// UnmarshalFrom.
func Unmarshal(b []byte) (*TxnCert, error) {
	t := new(TxnCert)
	if err := t.UnmarshalFrom(b); err != nil {
		return nil, err
	}
	return t, nil
}

// UnmarshalFrom decodes a certification message into t, overwriting every
// field. Both sets are decoded into t's own storage, which grows only when a
// set is larger than any t held before, and so live until the next decode
// into t: a reader copies what it keeps (see Ownership in the package
// comment). b is not retained. Length fields are validated against len(b)
// before any offset arithmetic, so hostile values cannot overflow the offset
// computations; on error t is left as it was.
func (t *TxnCert) UnmarshalFrom(b []byte) error {
	if len(b) < certHeader {
		return errBadCert
	}
	nr := int(binary.BigEndian.Uint32(b[20:24]))
	nw := int(binary.BigEndian.Uint32(b[24:28]))
	wb := int(binary.BigEndian.Uint32(b[28:32]))
	// Bound each count by the bytes actually present before computing any
	// combined offset: nr+nw and the per-element products stay far below
	// overflow once each is capped by len(b)/8. The sign checks matter on
	// 32-bit platforms, where a hostile uint32 converts to a negative int.
	avail := len(b) - certHeader
	if nr < 0 || nw < 0 || wb < 0 ||
		nr > avail/8 || nw > avail/8-nr || wb > avail-8*(nr+nw) {
		return errBadCert
	}
	if sim.RaceBuild { // a reader that kept a decoded set sees garbage
		sim.Poison(t.ReadSet)
		sim.Poison(t.WriteSet)
	}
	t.TID = binary.BigEndian.Uint64(b[0:8])
	t.Site = SiteID(binary.BigEndian.Uint32(b[8:12]))
	t.LastCommitted = binary.BigEndian.Uint64(b[12:20])
	t.WriteBytes = wb
	t.ReadSet = t.ReadSet.sized(nr)
	t.WriteSet = t.WriteSet.sized(nw)
	b = b[certHeader:]
	for i := range t.ReadSet {
		t.ReadSet[i] = TupleID(binary.BigEndian.Uint64(b[8*i:]))
	}
	b = b[8*nr:]
	for i := range t.WriteSet {
		t.WriteSet[i] = TupleID(binary.BigEndian.Uint64(b[8*i:]))
	}
	return nil
}

// PeekTID extracts the transaction identifier from a marshaled certification
// message without decoding the item sets — the optimistic final-delivery fast
// path, which already holds the fully decoded message from the tentative
// stage and only needs the key to look it up.
func PeekTID(b []byte) (uint64, error) {
	if len(b) < certHeader {
		return 0, errBadCert
	}
	return binary.BigEndian.Uint64(b[0:8]), nil
}

// Outcome is the certification verdict, identical at every replica.
type Outcome struct {
	// Commit reports whether the transaction passed certification.
	Commit bool
	// Seq is the commit sequence number (1-based) when Commit is true.
	Seq uint64
}

// Certifier executes the deterministic certification procedure. Each replica
// feeds it the totally-ordered stream of TxnCert messages; because the input
// order and the procedure are identical everywhere, every replica reaches
// the same verdict for every transaction.
//
// Two interchangeable implementations produce the identical outcome stream.
// The default (NewCertifier) maintains an inverted last-writer index — per
// tuple, the highest sequence number that committed a write to it, with
// table-level entries carrying the table-lock semantics — so certifying a
// transaction costs O(|ReadSet|) lookups. The index covers only the last one
// or two windows of indexWindow commits, which is all a live snapshot reaches
// back; a snapshot older than that (and not already refused by MaxHistory
// pruning) is answered from the retained history, with the same verdict and
// the same Charge. The reference implementation (NewScanCertifier) scans the
// retained history as the paper formulates the procedure; it is kept behind
// this switch for differential testing and as a fallback.
type Certifier struct {
	// Charge, if set, is invoked with the number of set items the
	// certification actually touched (index lookups and insertions, or
	// identifier comparisons in scan mode), letting the caller account
	// CPU cost for this real code.
	Charge func(items int)
	// MaxHistory bounds retained committed write-sets (0 = unlimited).
	// Pruning is a pure function of the certified stream, so every
	// replica prunes identically; a transaction whose snapshot predates
	// the retained window aborts deterministically (conservative).
	MaxHistory int
	// Veto, if set, is consulted before the conflict test; returning true
	// aborts the transaction regardless of its sets. The cross-group
	// commit path uses it to block transactions conflicting with a pending
	// reservation — the predicate must be a pure function of state derived
	// from the certified stream, so every replica vetoes identically.
	Veto func(*TxnCert) bool

	scan bool
	// logUndo makes a commit push its index restore records on undo.
	// SpecCertifier.Tentative sets it around its own certification: only a
	// tentative commit is ever rolled back, so a conservative certifier —
	// and a final-order certification under speculation — skips the
	// bookkeeping entirely.
	logUndo bool
	// undo is the one restore stack of the un-finalized suffix: replaying
	// its tail newest-first returns the index to an earlier state, which is
	// how speculative rollback unwinds tentative certifications. The
	// SpecCertifier remembers where each tentative entry's records start
	// and cuts the stack as entries finalize.
	undo   []undoRec
	hist   history
	seq    uint64
	pruned uint64 // highest seq dropped by pruning

	// Inverted last-writer index (unused in scan mode), in two generations.
	// lastWriter maps a tuple to the highest sequence number at or after
	// genStart that committed a write to it, older does the same for
	// [horizon, genStart), and a tuple last written before horizon has no
	// cell (a cell restored by rollback may still hold such a value, exact).
	// Sequence numbers are 1-based, so a TupleMap's empty cell, 0, reads as
	// "never written". When a commit reaches genStart+window, lastWriter
	// becomes older and the old older, cleared in place, the new lastWriter:
	// both arrays keep the size one generation grew them to, so a steady
	// index allocates nothing. tableLock and tableAny carry the table-lock
	// semantics per table, for the whole run, indexed by table number: the
	// highest committing sequence holding a whole-table lock, and the
	// highest committing sequence that wrote anything in the table, 0 for
	// none. Each is as long as the highest table written, at most 64 Ki.
	//
	// firstConflict rests on two invariants, which every commit, rotation
	// and rollback keeps:
	//   - no tuple's lastWrite and no tableLock cell exceeds its table's
	//     tableAny cell (an older cell that a rollback shadowed with a
	//     lastWriter cell may, but lastWrite never reads it), so a table
	//     whose tableAny cell is at or below a snapshot holds no conflict;
	//   - when lastWriter has no cell for a tuple, its older cell is below
	//     genStart: older only takes cells at a rotation, all below the
	//     new genStart, and a rollback that leaves lastWriter without a
	//     cell deletes the older one too (see truncate). So a snapshot at
	//     or after genStart-1 needs no older probe.
	lastWriter TupleMap[uint64]
	older      TupleMap[uint64]
	genStart   uint64
	horizon    uint64
	window     uint64 // commits per generation: indexWindow outside tests
	tableLock  []uint64
	tableAny   []uint64

	staleAnswers int64 // certifications answered from the history (StaleAnswers)
	released     bool
}

// certStore is the storage a released indexed certifier leaves for the next
// NewCertifier: emptied, with the capacity its run grew.
type certStore struct {
	lastWriter, older   TupleMap[uint64]
	tableLock, tableAny []uint64
	blocks              []*[histBlock]histEntry
	items               []*[arenaBlock]TupleID
	undo                []undoRec
}

// certStores holds the storage of released certifiers.
var certStores sim.Shelf[certStore]

// indexWindow is the number of commits in one generation of the last-writer
// index. The stalest snapshot the benchmark workloads certify is a few
// hundred commits old, so the index answers them all; an older one costs a
// history scan, never a different verdict.
const indexWindow = 1024

// histEntry is one committed write-set, in the history's own storage.
type histEntry struct {
	seq      uint64
	writeSet ItemSet
	end      int // the arena's fill point once writeSet was copied in
}

// histBlock is the number of entries in one block of the history.
const histBlock = 256

// history is the retained committed write-sets, oldest first: a deque of
// fixed-size blocks, so appending never copies what is already stored and
// dropping the oldest entries advances an index. A block drained at the front
// goes to the back, so a history at its bound allocates nothing. The sets
// themselves are copies in items, which recycles its blocks the same way.
type history struct {
	blocks []*[histBlock]histEntry
	head   int // position of the oldest entry in blocks[0]
	n      int // retained entries
	items  arena
}

// at returns entry i, 0 being the oldest.
func (h *history) at(i int) *histEntry {
	i += h.head
	return &h.blocks[i/histBlock][i%histBlock]
}

// push appends a copy of ws, committed at seq: the caller's set is only read.
func (h *history) push(seq uint64, ws ItemSet) {
	if h.head+h.n == len(h.blocks)*histBlock {
		h.blocks = append(h.blocks, new([histBlock]histEntry))
	}
	h.n++
	e := h.at(h.n - 1)
	e.seq = seq
	e.writeSet, e.end = h.items.copy(ws)
}

// dropFront removes the k oldest entries, and gives the arena blocks only
// they used back to the arena.
func (h *history) dropFront(k int) {
	for ; k > 0; k-- {
		*h.at(0) = histEntry{}
		h.n--
		if h.head++; h.head == histBlock {
			drained := h.blocks[0]
			h.blocks[copy(h.blocks, h.blocks[1:])] = drained
			h.head = 0
		}
	}
	if h.n > 0 {
		h.items.keep(h.at(0).end)
	}
}

// truncate removes the newest entries beyond the first n, and rewinds the
// arena to the end of the newest that remains.
func (h *history) truncate(n int) {
	for h.n > n {
		h.n--
		*h.at(h.n) = histEntry{}
	}
	if n > 0 {
		h.items.fill = h.at(n - 1).end
	} else {
		h.items.fill = h.items.first * arenaBlock
	}
}

// reset removes every entry and keeps the blocks, all zero: dropFront zeroes
// what it drops, truncate the rest. The arena keeps its blocks, all free.
func (h *history) reset() {
	h.truncate(0)
	h.head = 0
	h.items = arena{blocks: h.items.blocks}
}

// arenaBlock is the number of items in one block of a history's arena.
const arenaBlock = 4096

// arena is the storage a history copies its write-sets into: a deque of
// fixed blocks of items, filled in order. A position counts items from the
// arena's start, so position p is item p%arenaBlock of block number
// p/arenaBlock, and blocks[0] is block number first; the blocks after the one
// being filled are free. A set never spans two blocks: one that does not fit
// in what is left of the current block starts the next. A set larger than a
// block gets an allocation of its own and takes no position.
type arena struct {
	blocks []*[arenaBlock]TupleID
	first  int // block number of blocks[0]
	fill   int // position of the next item
}

// copy stores a copy of ws and returns it with the fill point after it.
func (a *arena) copy(ws ItemSet) (ItemSet, int) {
	n := len(ws)
	if n == 0 || n > arenaBlock {
		return ws.Clone(), a.fill
	}
	off := a.fill % arenaBlock
	if off+n > arenaBlock {
		a.fill += arenaBlock - off
		off = 0
	}
	i := a.fill/arenaBlock - a.first
	if i == len(a.blocks) {
		a.blocks = append(a.blocks, new([arenaBlock]TupleID))
	}
	dst := ItemSet(a.blocks[i][off : off+n : off+n])
	copy(dst, ws)
	a.fill += n
	return dst, a.fill
}

// keep moves the blocks before the one holding position end-1 to the back of
// the deque, free: end is the fill point after the oldest set still retained,
// so no retained set sits in them. For a set with no position, the block
// before it is kept too, which is never wrong.
func (a *arena) keep(end int) {
	for b := max(end-1, 0) / arenaBlock; a.first < b; a.first++ {
		drained := a.blocks[0]
		a.blocks[copy(a.blocks, a.blocks[1:])] = drained
	}
}

// firstAfter returns the position of the first entry committed after seq.
// Open-coded binary search: a sort.Search closure is a heap allocation per
// certification.
func (h *history) firstAfter(seq uint64) int {
	lo, hi := 0, h.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.at(mid).seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// undoRec records one index cell's value prior to an update. prev == 0 means
// the cell was empty (sequence numbers are 1-based).
type undoRec struct {
	key  TupleID
	prev uint64
	kind uint8
}

const (
	undoLW    uint8 = iota // lastWriter[key]
	undoTLock              // tableLock[key.Table()]
	undoTAny               // tableAny[key.Table()]
)

// NewCertifier returns an empty certifier using the inverted last-writer
// index, on the storage of a released certifier when one is waiting.
func NewCertifier() *Certifier {
	st, _ := certStores.Get()
	return &Certifier{
		lastWriter: st.lastWriter,
		older:      st.older,
		window:     indexWindow,
		tableLock:  st.tableLock,
		tableAny:   st.tableAny,
		hist:       history{blocks: st.blocks, items: arena{blocks: st.items}},
		undo:       st.undo,
	}
}

// Release ends the certifier's life: its index, history, arena and undo
// storage, emptied, go to the next NewCertifier. Seq and StaleAnswers stay
// readable; Certify and CheckOnly panic. Releasing again does nothing.
func (c *Certifier) Release() {
	if c.released {
		return
	}
	c.released = true
	if !c.scan {
		c.lastWriter.Clear()
		c.older.Clear()
		c.hist.reset()
		certStores.Put(certStore{
			lastWriter: c.lastWriter, older: c.older,
			tableLock: c.tableLock[:0], tableAny: c.tableAny[:0],
			blocks: c.hist.blocks, items: c.hist.items.blocks, undo: c.undo[:0],
		})
	}
	c.lastWriter, c.older = TupleMap[uint64]{}, TupleMap[uint64]{}
	c.tableLock, c.tableAny = nil, nil
	c.hist, c.undo = history{}, nil
}

// checkLive panics on a released certifier.
func (c *Certifier) checkLive() {
	if c.released {
		panic("dbsm: certification on a released certifier")
	}
}

// NewScanCertifier returns an empty certifier using the reference
// history-scan procedure (O(concurrent-history × read-set) per transaction).
func NewScanCertifier() *Certifier {
	return &Certifier{scan: true}
}

// Seq reports the current commit sequence number (count of committed
// transactions so far).
func (c *Certifier) Seq() uint64 { return c.seq }

// HistoryLen reports retained committed write-sets (for GC tests).
func (c *Certifier) HistoryLen() int { return c.hist.n }

// IndexCells reports the last-writer index's tuple cells, both generations,
// and the horizon: the oldest commit the index is sure to know about.
func (c *Certifier) IndexCells() (cells int, horizon uint64) {
	return c.lastWriter.Len() + c.older.Len(), c.horizon
}

// StaleAnswers reports how many certifications (Certify or CheckOnly) had a
// snapshot older than the index's horizon and were answered by scanning the
// retained history.
func (c *Certifier) StaleAnswers() int64 { return c.staleAnswers }

// Certify decides a transaction's fate: it aborts iff its read-set
// intersects the write-set of any committed transaction that executed
// concurrently (certification sequence number greater than the
// transaction's LastCommitted snapshot).
func (c *Certifier) Certify(t *TxnCert) Outcome {
	c.checkLive()
	if c.Veto != nil && c.Veto(t) {
		return Outcome{Commit: false}
	}
	if t.LastCommitted < c.pruned && len(t.ReadSet) > 0 {
		// Entries possibly concurrent with this transaction were
		// pruned: conflicts can no longer be ruled out. Abort —
		// deterministically, since pruning follows the certified
		// stream identically at every replica.
		return Outcome{Commit: false}
	}
	if c.scan {
		return c.certifyScan(t)
	}
	if pos := c.firstConflict(t); pos > 0 {
		if c.Charge != nil {
			c.Charge(pos)
		}
		return Outcome{Commit: false}
	}
	if c.Charge != nil {
		c.Charge(len(t.ReadSet) + len(t.WriteSet))
	}
	c.commit(t)
	return Outcome{Commit: true, Seq: c.seq}
}

// firstConflict returns the 1-based position in t's read-set of the first
// read that a write committed after t's snapshot conflicts with, or 0 when
// none does: a tuple conflicts with a write of itself or a lock of its table,
// a table lock with any write in its table. t must not be refused by the
// pruning rule, so every write after its snapshot is still in the history.
//
// The sorted read-set is walked one table at a time, and a table nothing
// wrote since the snapshot (its tableAny cell at or below it) is skipped
// without a probe; older is probed only for a snapshot before genStart-1.
// Both rest on the invariants in Certifier's comment.
func (c *Certifier) firstConflict(t *TxnCert) int {
	rs, snap := t.ReadSet, t.LastCommitted
	if snap+1 < c.horizon && len(rs) > 0 {
		return c.firstConflictStale(t)
	}
	probeOlder := snap+1 < c.genStart
	for i := 0; i < len(rs); {
		tbl := rs[i].Table()
		end := i + 1
		for end < len(rs) && rs[end].Table() == tbl {
			end++
		}
		if tableCell(c.tableAny, tbl) <= snap {
			i = end
			continue
		}
		if tableCell(c.tableLock, tbl) > snap {
			return i + 1 // every read of the table conflicts with the lock
		}
		for ; i < end; i++ {
			r := rs[i]
			if r.IsTableLock() {
				return i + 1 // something in the table was written since
			}
			last := c.lastWriter.Get(r)
			if last == 0 && probeOlder {
				last = c.older.Get(r)
			}
			if last > snap {
				return i + 1
			}
		}
	}
	return 0
}

// firstConflictStale is firstConflict for a snapshot older than the index's
// horizon: it scans the retained entries after the snapshot, narrowing the
// candidate reads to those before the first conflict found so far.
func (c *Certifier) firstConflictStale(t *TxnCert) int {
	c.staleAnswers++
	first := len(t.ReadSet) // reads[:first] have not been seen to conflict
	for i := c.hist.firstAfter(t.LastCommitted); i < c.hist.n && first > 0; i++ {
		ws := c.hist.at(i).writeSet
		if !ws.Intersects(t.ReadSet[:first]) {
			continue
		}
		for j := range first {
			if ws.Intersects(t.ReadSet[j : j+1]) {
				first = j
				break
			}
		}
	}
	if first == len(t.ReadSet) {
		return 0
	}
	return first + 1
}

// lastWrite looks a tuple up in the index, current generation first.
func (c *Certifier) lastWrite(k TupleID) uint64 {
	if s := c.lastWriter.Get(k); s != 0 {
		return s
	}
	return c.older.Get(k)
}

// tableCell reads table t's cell of tableLock or tableAny: 0 past the end.
func tableCell(cells []uint64, t uint16) uint64 {
	if int(t) < len(cells) {
		return cells[t]
	}
	return 0
}

// tableSlot returns table t's cell of tableLock or tableAny for writing,
// lengthening the cells to reach it.
func tableSlot(cells *[]uint64, t uint16) *uint64 {
	if n := int(t) + 1 - len(*cells); n > 0 {
		*cells = append(*cells, make([]uint64, n)...)
	}
	return &(*cells)[t]
}

// certifyScan is the reference procedure: scan every retained write-set that
// committed after the transaction's snapshot.
func (c *Certifier) certifyScan(t *TxnCert) Outcome {
	comparisons := 0
	for i := c.hist.firstAfter(t.LastCommitted); i < c.hist.n; i++ {
		e := c.hist.at(i)
		comparisons += len(e.writeSet) + len(t.ReadSet)
		if e.writeSet.Intersects(t.ReadSet) {
			if c.Charge != nil {
				c.Charge(comparisons)
			}
			return Outcome{Commit: false}
		}
	}
	if c.Charge != nil {
		c.Charge(comparisons)
	}
	c.commit(t)
	return Outcome{Commit: true, Seq: c.seq}
}

// commit advances the sequence, copies the write-set into the history's own
// storage (the message's set lives in storage its owner reuses, so it is
// read here and never kept), and applies the in-certify MaxHistory pruning.
func (c *Certifier) commit(t *TxnCert) {
	c.seq++
	if len(t.WriteSet) == 0 {
		return
	}
	if !c.scan {
		c.indexWrites(t.WriteSet, c.logUndo)
	}
	c.hist.push(c.seq, t.WriteSet)
	if c.MaxHistory > 0 && c.hist.n > c.MaxHistory {
		c.dropOldest(c.hist.n - c.MaxHistory)
	}
}

// indexWrites records ws as committed at the current sequence number and —
// when log is set — pushes the records restoring the index cells it
// displaced on the undo stack. ws is sorted, so same-table items are
// contiguous and the table-level cells are updated once per table. A commit
// that reaches the end of the current generation starts the next one first.
func (c *Certifier) indexWrites(ws ItemSet, log bool) {
	if c.seq >= c.genStart+c.window {
		c.older, c.lastWriter = c.lastWriter, c.older
		c.lastWriter.Clear()
		c.horizon, c.genStart = c.genStart, c.seq
	}
	var curTable uint16
	haveTable := false
	for _, w := range ws {
		tbl := w.Table()
		if !haveTable || tbl != curTable {
			cell := tableSlot(&c.tableAny, tbl)
			if log {
				c.undo = append(c.undo, undoRec{key: w, prev: *cell, kind: undoTAny})
			}
			*cell = c.seq
			curTable, haveTable = tbl, true
		}
		if w.IsTableLock() {
			cell := tableSlot(&c.tableLock, tbl)
			if log {
				c.undo = append(c.undo, undoRec{key: w, prev: *cell, kind: undoTLock})
			}
			*cell = c.seq
		} else {
			if log {
				c.undo = append(c.undo, undoRec{key: w, prev: c.lastWrite(w), kind: undoLW})
			}
			c.lastWriter.Put(w, c.seq)
		}
	}
}

// truncate restores the certifier to an earlier state: history cut back to
// histLen entries, the sequence counter to seqBefore and the undo stack to
// undoLen records, with every index update above that mark unwound (newest
// first). It is the undo primitive of speculative rollback: every entry it
// removes was committed by SpecCertifier.Tentative, which logged it, and the
// removed suffix never crosses the pruning boundary because SpecCertifier
// prunes only the finalized region.
//
// A generation change inside the removed suffix stays: the cells it moved to
// older that the suffix wrote are shadowed by the value restored into
// lastWriter, or — for a tuple the index had no cell for — deleted from both.
func (c *Certifier) truncate(histLen int, seqBefore uint64, undoLen int) {
	for j := len(c.undo) - 1; j >= undoLen; j-- {
		u := c.undo[j]
		switch u.kind {
		case undoLW:
			c.lastWriter.Put(u.key, u.prev) // prev 0 deletes
			if u.prev == 0 {
				c.older.Delete(u.key)
			}
		case undoTLock: // the commit being undone lengthened the cells
			c.tableLock[u.key.Table()] = u.prev
		case undoTAny:
			c.tableAny[u.key.Table()] = u.prev
		}
	}
	c.undo = c.undo[:undoLen]
	c.hist.truncate(histLen)
	c.seq = seqBefore
}

// dropOldest removes the oldest drop history entries and advances the pruning
// boundary to the newest dropped sequence (the MaxHistory retention rule).
// The index is left alone: its generations bound it, and a cell at or below
// the boundary can never produce a conflict again, since any transaction that
// survives the pruned-window abort rule has LastCommitted at or above it.
func (c *Certifier) dropOldest(drop int) {
	if drop <= 0 {
		return
	}
	if boundary := c.hist.at(drop - 1).seq; boundary > c.pruned {
		c.pruned = boundary
	}
	c.hist.dropFront(drop)
}
