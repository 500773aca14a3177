package dbsm

import (
	"encoding/binary"
	"errors"
	"fmt"
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
//
//hot:path
func (t *TxnCert) MarshalTo(buf []byte) []byte {
	n := t.MarshaledSize()
	if cap(buf) < n {
		//lint:hotalloc-ok capacity miss grows the caller's scratch once, then amortised free
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
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

// Unmarshal decodes a certification message. The item sets are copied out,
// so b may be reused or mutated afterwards. Length fields are validated
// against len(b) before any offset arithmetic, so hostile values cannot
// overflow the offset computations.
//
//hot:path
func Unmarshal(b []byte) (*TxnCert, error) {
	if len(b) < certHeader {
		return nil, errBadCert
	}
	//lint:hotalloc-ok decode returns a fresh message by contract; one struct per decode
	t := &TxnCert{
		TID:           binary.BigEndian.Uint64(b[0:8]),
		Site:          SiteID(binary.BigEndian.Uint32(b[8:12])),
		LastCommitted: binary.BigEndian.Uint64(b[12:20]),
	}
	nr := int(binary.BigEndian.Uint32(b[20:24]))
	nw := int(binary.BigEndian.Uint32(b[24:28]))
	t.WriteBytes = int(binary.BigEndian.Uint32(b[28:32]))
	// Bound each count by the bytes actually present before computing any
	// combined offset: nr+nw and the per-element products stay far below
	// overflow once each is capped by len(b)/8. The sign checks matter on
	// 32-bit platforms, where a hostile uint32 converts to a negative int.
	avail := len(b) - certHeader
	if nr < 0 || nw < 0 || t.WriteBytes < 0 ||
		nr > avail/8 || nw > avail/8-nr || t.WriteBytes > avail-8*(nr+nw) {
		return nil, errBadCert
	}
	// Both sets share one backing array: a single allocation per decode.
	//lint:hotalloc-ok deliberate single allocation shared by both item sets
	ids := make(ItemSet, nr+nw)
	for i := range ids {
		ids[i] = TupleID(binary.BigEndian.Uint64(b[certHeader+8*i:]))
	}
	t.ReadSet = ids[:nr:nr]
	t.WriteSet = ids[nr:]
	return t, nil
}

// PeekTID extracts the transaction identifier from a marshaled certification
// message without decoding the item sets — the optimistic final-delivery fast
// path, which already holds the fully decoded message from the tentative
// stage and only needs the key to look it up.
//
//hot:path
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
// transaction costs O(|ReadSet|) lookups regardless of history depth. The
// reference implementation (NewScanCertifier) scans the retained history as
// the paper formulates the procedure; it is kept behind this switch for
// differential testing and as a fallback.
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
	// undoEnabled records index restore logs with each history entry.
	// Only speculative (tentative) certification ever truncates, so the
	// SpecCertifier wrapper enables it; a plain conservative certifier
	// skips the bookkeeping entirely.
	undoEnabled bool
	history     []histEntry
	seq         uint64
	pruned      uint64 // highest seq dropped by pruning

	// Inverted last-writer index (unused in scan mode). lastWriter maps a
	// tuple to the highest sequence number that committed a write to it;
	// tableLock and tableAny carry the table-lock semantics per table:
	// the highest committing sequence holding a whole-table lock, and the
	// highest committing sequence that wrote anything in the table.
	lastWriter map[TupleID]uint64
	tableLock  map[uint16]uint64
	tableAny   map[uint16]uint64
}

// histEntry is one committed write-set. undo is the index restore log
// (indexed mode only): replaying it newest-first returns the index to its
// state before this commit, which is how speculative rollback unwinds
// tentative certifications.
type histEntry struct {
	seq      uint64
	writeSet ItemSet
	undo     []undoRec
}

// undoRec records one index cell's value prior to an update. prev == 0 means
// the cell was absent (sequence numbers are 1-based).
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
// index.
func NewCertifier() *Certifier {
	return &Certifier{
		lastWriter: make(map[TupleID]uint64),
		tableLock:  make(map[uint16]uint64),
		tableAny:   make(map[uint16]uint64),
	}
}

// NewScanCertifier returns an empty certifier using the reference
// history-scan procedure (O(concurrent-history × read-set) per transaction).
func NewScanCertifier() *Certifier {
	return &Certifier{scan: true}
}

// Scan reports whether this certifier uses the reference scan procedure.
func (c *Certifier) Scan() bool { return c.scan }

// Seq reports the current commit sequence number (count of committed
// transactions so far).
func (c *Certifier) Seq() uint64 { return c.seq }

// HistoryLen reports retained committed write-sets (for GC tests).
func (c *Certifier) HistoryLen() int { return len(c.history) }

// Certify decides a transaction's fate: it aborts iff its read-set
// intersects the write-set of any committed transaction that executed
// concurrently (certification sequence number greater than the
// transaction's LastCommitted snapshot).
//
//hot:path
func (c *Certifier) Certify(t *TxnCert) Outcome {
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
	work := 0
	for _, r := range t.ReadSet {
		work++
		var last uint64
		if r.IsTableLock() {
			last = c.tableAny[r.Table()]
		} else {
			last = c.lastWriter[r]
			if ls := c.tableLock[r.Table()]; ls > last {
				last = ls
			}
		}
		if last > t.LastCommitted {
			if c.Charge != nil {
				c.Charge(work)
			}
			return Outcome{Commit: false}
		}
	}
	if c.Charge != nil {
		c.Charge(work + len(t.WriteSet))
	}
	c.commit(t)
	return Outcome{Commit: true, Seq: c.seq}
}

// certifyScan is the reference procedure: scan every retained write-set that
// committed after the transaction's snapshot.
//
//hot:path
func (c *Certifier) certifyScan(t *TxnCert) Outcome {
	// Binary search for the first concurrent entry. Open-coded: a
	// sort.Search closure is a heap allocation per certification.
	lo, hi := 0, len(c.history)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.history[mid].seq > t.LastCommitted {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	idx := lo
	comparisons := 0
	for i := idx; i < len(c.history); i++ {
		e := &c.history[i]
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

// commit advances the sequence, records the write-set, and applies the
// in-certify MaxHistory pruning.
//
//hot:path
func (c *Certifier) commit(t *TxnCert) {
	c.seq++
	if len(t.WriteSet) == 0 {
		return
	}
	e := histEntry{seq: c.seq, writeSet: t.WriteSet.Clone()}
	if !c.scan {
		e.undo = c.indexWrites(t.WriteSet)
	}
	c.history = append(c.history, e)
	if c.MaxHistory > 0 && len(c.history) > c.MaxHistory {
		c.dropOldest(len(c.history) - c.MaxHistory)
	}
}

// indexWrites records ws as committed at the current sequence number and —
// when undo logging is enabled — returns the log restoring the index cells
// it displaced. ws is sorted, so same-table items are contiguous and the
// table-level cells are updated once per table.
func (c *Certifier) indexWrites(ws ItemSet) []undoRec {
	var undo []undoRec
	if c.undoEnabled {
		undo = make([]undoRec, 0, len(ws)+2)
	}
	var curTable uint16
	haveTable := false
	for _, w := range ws {
		tbl := w.Table()
		if !haveTable || tbl != curTable {
			if c.undoEnabled {
				undo = append(undo, undoRec{key: w, prev: c.tableAny[tbl], kind: undoTAny})
			}
			c.tableAny[tbl] = c.seq
			curTable, haveTable = tbl, true
		}
		if w.IsTableLock() {
			if c.undoEnabled {
				undo = append(undo, undoRec{key: w, prev: c.tableLock[tbl], kind: undoTLock})
			}
			c.tableLock[tbl] = c.seq
		} else {
			if c.undoEnabled {
				undo = append(undo, undoRec{key: w, prev: c.lastWriter[w], kind: undoLW})
			}
			c.lastWriter[w] = c.seq
		}
	}
	return undo
}

// truncate restores the certifier to an earlier state: history cut back to
// histLen entries and the sequence counter to seqBefore, with every index
// update of the removed entries unwound (newest first). It is the undo
// primitive of speculative rollback — only valid on a certifier whose undo
// logging was enabled by its SpecCertifier wrapper; the removed suffix never
// crosses the pruning boundary because SpecCertifier prunes only the
// finalized region.
func (c *Certifier) truncate(histLen int, seqBefore uint64) {
	if !c.scan && !c.undoEnabled && len(c.history) > histLen {
		panic("dbsm: truncate on an indexed certifier without undo logging")
	}
	for i := len(c.history) - 1; i >= histLen; i-- {
		e := &c.history[i]
		for j := len(e.undo) - 1; j >= 0; j-- {
			u := e.undo[j]
			switch u.kind {
			case undoLW:
				if u.prev == 0 {
					delete(c.lastWriter, u.key)
				} else {
					c.lastWriter[u.key] = u.prev
				}
			case undoTLock:
				if u.prev == 0 {
					delete(c.tableLock, u.key.Table())
				} else {
					c.tableLock[u.key.Table()] = u.prev
				}
			case undoTAny:
				if u.prev == 0 {
					delete(c.tableAny, u.key.Table())
				} else {
					c.tableAny[u.key.Table()] = u.prev
				}
			}
		}
		c.history[i] = histEntry{}
	}
	c.history = c.history[:histLen]
	c.seq = seqBefore
}

// dropOldest removes the oldest drop history entries and advances the pruning
// boundary to the newest dropped sequence (the MaxHistory retention rule). In
// indexed mode, index cells still pointing at dropped sequences are deleted:
// any transaction that survives the pruned-window abort rule has
// LastCommitted at or above every dropped sequence, so those cells can never
// produce a conflict again — removing them bounds the index to the live
// history.
func (c *Certifier) dropOldest(drop int) {
	if drop <= 0 {
		return
	}
	boundary := c.history[drop-1].seq
	if boundary > c.pruned {
		c.pruned = boundary
	}
	if !c.scan {
		for i := 0; i < drop; i++ {
			ws := c.history[i].writeSet
			var curTable uint16
			haveTable := false
			for _, w := range ws {
				tbl := w.Table()
				if !haveTable || tbl != curTable {
					if c.tableAny[tbl] <= boundary {
						delete(c.tableAny, tbl)
					}
					if c.tableLock[tbl] <= boundary {
						delete(c.tableLock, tbl)
					}
					curTable, haveTable = tbl, true
				}
				if !w.IsTableLock() && c.lastWriter[w] <= boundary {
					delete(c.lastWriter, w)
				}
			}
		}
	}
	n := copy(c.history, c.history[drop:])
	for i := n; i < len(c.history); i++ {
		c.history[i] = histEntry{}
	}
	c.history = c.history[:n]
}

// String aids debugging.
func (c *Certifier) String() string {
	return fmt.Sprintf("certifier{seq=%d history=%d}", c.seq, len(c.history))
}
