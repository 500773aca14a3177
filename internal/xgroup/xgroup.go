// Package xgroup holds the deterministic building blocks of partial
// replication: warehouse→group placement, certification-message splitting
// into per-group parts, and the wire formats of the cross-group commit round
// (prepare / vote / decide / ack). The protocol itself — reservations,
// retransmissions, coordinator handover — lives in internal/replica; this
// package is pure functions so every site computes identical placements,
// splits, and encodings.
//
// Group topology: with G groups of S sites each, sites are numbered 1..G·S
// and group g (1-based) owns the contiguous range [(g-1)·S+1 .. g·S].
// Warehouse w (0-based) belongs to group w%G+1, striping the TPC-C load
// evenly, and its home site rotates within the group as (w/G)%S.
package xgroup

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/dbsm"
	"repro/internal/runtimeapi"
	"repro/internal/sim"
)

// GroupOfSite reports the 1-based group owning a 1-based site id.
func GroupOfSite(site, sitesPerGroup int) int {
	return (site-1)/sitesPerGroup + 1
}

// GroupSites reports the inclusive site-id range [lo, hi] of a group.
func GroupSites(group, sitesPerGroup int) (lo, hi int) {
	lo = (group-1)*sitesPerGroup + 1
	return lo, lo + sitesPerGroup - 1
}

// WarehouseGroup reports the 1-based group owning a 0-based warehouse.
func WarehouseGroup(wh, groups int) int { return wh%groups + 1 }

// HomeSite reports the 1-based global site id hosting a warehouse's clients:
// the warehouse's group, with the site within the group rotating so every
// site carries an equal warehouse share.
func HomeSite(wh, groups, sitesPerGroup int) int {
	g := WarehouseGroup(wh, groups)
	return (g-1)*sitesPerGroup + (wh/groups)%sitesPerGroup + 1
}

// Part is one group's share of a split certification message.
type Part struct {
	Group int
	Cert  dbsm.TxnCert
}

// Split partitions a certification message by group: each tuple goes to the
// part of classify(tuple), with 0 — unpartitioned catalog data, replicated
// in every group — folded into the home part. TID, Site, and LastCommitted
// are copied into every part (LastCommitted is only meaningful to the home
// group's certifier; remote votes skip the staleness test). WriteBytes is
// distributed proportionally to each part's write count, remainder to the
// home part. Parts are returned sorted by group. They are built on parts'
// array, and their item sets carved out of one array, store's (sortedness
// carries over from t's, so the dbsm invariants hold); each is grown only
// when too small, store to exactly t's tuple count. Both come back for the
// next call, and the parts' sets alias store until then.
func Split(parts []Part, store dbsm.ItemSet, t *dbsm.TxnCert, classify func(dbsm.TupleID) int, home int) ([]Part, dbsm.ItemSet) {
	parts = parts[:0]
	get := func(g int) *dbsm.TxnCert {
		if g == 0 {
			g = home
		}
		for i := range parts {
			if parts[i].Group == g {
				return &parts[i].Cert
			}
		}
		parts = append(parts, Part{Group: g, Cert: dbsm.TxnCert{
			TID:           t.TID,
			Site:          t.Site,
			LastCommitted: t.LastCommitted,
		}})
		return &parts[len(parts)-1].Cert
	}
	// The home part exists even when the transaction touches no home tuple:
	// the home group's ordered stream still carries the prepare and decide,
	// and the client's outcome resolves there.
	get(home)
	// Count first: until the carve below a part's set is store[:n], n being
	// the number of tuples it will hold.
	n := len(t.ReadSet) + len(t.WriteSet)
	if cap(store) < n {
		store = make(dbsm.ItemSet, n)
	}
	store = store[:n]
	for _, r := range t.ReadSet {
		c := get(classify(r))
		c.ReadSet = store[:len(c.ReadSet)+1]
	}
	for _, w := range t.WriteSet {
		c := get(classify(w))
		c.WriteSet = store[:len(c.WriteSet)+1]
	}
	slices.SortFunc(parts, func(a, b Part) int { return a.Group - b.Group })
	off, assigned := 0, 0
	for i := range parts {
		c := &parts[i].Cert
		nr, nw := len(c.ReadSet), len(c.WriteSet)
		c.ReadSet, off = store[off:off:off+nr], off+nr
		c.WriteSet, off = store[off:off:off+nw], off+nw
		if nw > 0 {
			c.WriteBytes = t.WriteBytes * nw / len(t.WriteSet)
			assigned += c.WriteBytes
		}
	}
	if len(t.WriteSet) > 0 {
		get(home).WriteBytes += t.WriteBytes - assigned
	}
	for _, r := range t.ReadSet {
		c := get(classify(r))
		c.ReadSet = append(c.ReadSet, r)
	}
	for _, w := range t.WriteSet {
		c := get(classify(w))
		c.WriteSet = append(c.WriteSet, w)
	}
	return parts, store
}

// Message discriminators: the first byte of every group-mode ordered-stream
// payload and of every relay payload.
const (
	MsgTxn      byte = iota + 1 // stream: single-group TxnCert bytes follow
	MsgPrepare                  // stream + relay: cross-group prepare
	MsgVote                     // relay: a participant's group vote
	MsgDecide                   // stream + relay: the coordinator's decision
	MsgAck                      // relay: a remote member acks the decision
	MsgPrepFrag                 // relay: one fragment of an oversized prepare
)

// Prepare is the first round of the cross-group commit: the full split of a
// multi-group transaction, multicast on the home group's ordered stream and
// relayed (restricted to the receiving group's part) to remote groups.
type Prepare struct {
	TID         uint64
	Coordinator runtimeapi.NodeID
	HomeGroup   int
	Parts       []Part
}

// errBadXMsg reports a malformed cross-group wire message.
var errBadXMsg = errors.New("xgroup: malformed cross-group message")

const prepareHeader = 8 + 4 + 1 + 1
const partHeader = 1 + 4 + 4

// AppendPrepare encodes lead plus the prepare body onto buf. Each part's
// certification message embeds value padding sized by its WriteBytes, so the
// wire message costs what shipping the written values would; when maxSize is
// positive the padding — and only the padding — is trimmed (newest part
// first) toward fitting relayed datagrams under the MTU. Only padding can be
// shed: if the headers and item sets alone exceed maxSize the result still
// exceeds it, and the caller must split it with FragmentPrepare (the relay
// path in internal/replica does). The true WriteBytes travels alongside and
// is restored at parse.
func AppendPrepare(buf []byte, lead byte, p *Prepare, maxSize int) []byte {
	total, padding := 1+prepareHeader, 0
	for i := range p.Parts {
		total += partHeader + p.Parts[i].Cert.MarshaledSize()
		padding += p.Parts[i].Cert.WriteBytes
	}
	excess := 0
	if maxSize > 0 && total > maxSize {
		excess = total - maxSize
	}
	buf = append(buf, lead)
	buf = binary.BigEndian.AppendUint64(buf, p.TID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Coordinator))
	buf = append(buf, byte(p.HomeGroup), byte(len(p.Parts)))
	for i := range p.Parts {
		pt := &p.Parts[i]
		c := pt.Cert // value copy; the sets are shared, only WriteBytes differs
		// padding is now what the parts after this one carry: they are
		// trimmed first, this one by whatever excess is left.
		padding -= c.WriteBytes
		c.WriteBytes -= min(c.WriteBytes, max(excess-padding, 0))
		buf = append(buf, byte(pt.Group))
		buf = binary.BigEndian.AppendUint32(buf, uint32(pt.Cert.WriteBytes))
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.MarshaledSize()))
		buf = c.AppendTo(buf)
	}
	return buf
}

// ParsePrepareInto decodes a prepare body (the lead byte already consumed)
// into p, overwriting every field; it is the one prepare decoder. Each part
// is decoded into the storage p held for a part at that index
// (dbsm.TxnCert.UnmarshalFrom), which grows only past what p held before, so
// a p that is decoded into again and again allocates nothing once it has
// held the largest prepare. The parts live until the next decode into p: a
// reader copies what it keeps (the cross-group round copies its own part
// into an arena). Race builds poison every set p holds first, so a reader
// that kept one reads garbage. b is not retained. On error p's fields are
// unspecified, but its storage stays for the next decode.
func ParsePrepareInto(p *Prepare, b []byte) error {
	if len(b) < prepareHeader {
		return errBadXMsg
	}
	if sim.RaceBuild {
		for _, pt := range p.Parts[:cap(p.Parts)] {
			sim.Poison(pt.Cert.ReadSet)
			sim.Poison(pt.Cert.WriteSet)
		}
	}
	p.TID = binary.BigEndian.Uint64(b[0:8])
	p.Coordinator = runtimeapi.NodeID(binary.BigEndian.Uint32(b[8:12]))
	p.HomeGroup = int(b[12])
	n := int(b[13])
	o := prepareHeader
	parts := p.Parts[:cap(p.Parts)]
	if n > len(parts) {
		// Grow keeping the earlier parts' storage: the copy carries their
		// sets' arrays along.
		parts = append(parts, make([]Part, n-len(parts))...)
	}
	p.Parts = parts[:0]
	for i := 0; i < n; i++ {
		if len(b)-o < partHeader {
			return errBadXMsg
		}
		g := int(b[o])
		wb := int(binary.BigEndian.Uint32(b[o+1 : o+5]))
		clen := int(binary.BigEndian.Uint32(b[o+5 : o+9]))
		o += partHeader
		if wb < 0 || clen < 0 || clen > len(b)-o {
			return errBadXMsg
		}
		pt := &parts[i]
		if err := pt.Cert.UnmarshalFrom(b[o : o+clen]); err != nil {
			return err
		}
		pt.Group = g
		pt.Cert.WriteBytes = wb
		o += clen
		p.Parts = parts[:i+1]
	}
	return nil
}

// fragHeader is a fragment frame's fixed prefix: lead byte, TID, total
// fragment count, fragment index.
const fragHeader = 1 + 8 + 1 + 1

// MaxPrepFrags bounds the fragment count of one prepare; at a 1400-byte MTU
// that is ~88 KiB of item sets, far past any transaction this model runs.
const MaxPrepFrags = 64

// FragmentPrepare splits an encoded prepare that still exceeds maxSize after
// padding trimming (item sets alone overflow the datagram) into MsgPrepFrag
// frames of at most maxSize bytes each. enc is the AppendPrepare output —
// lead byte plus body; the lead is dropped and the body chunked, so
// reassembling the chunks in index order restores a MsgPrepare-shaped
// payload. Returns nil when enc already fits, or when maxSize is too small
// (or the body too large) to fragment — callers then fall back to sending
// enc whole, the pre-fragmentation behaviour.
func FragmentPrepare(enc []byte, tid uint64, maxSize int) [][]byte {
	if len(enc) <= maxSize || len(enc) < 1 {
		return nil
	}
	body := enc[1:]
	chunk := maxSize - fragHeader
	if chunk <= 0 {
		return nil
	}
	total := (len(body) + chunk - 1) / chunk
	if total > MaxPrepFrags {
		return nil
	}
	frames := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		part := body[i*chunk : min((i+1)*chunk, len(body))]
		f := make([]byte, 0, fragHeader+len(part))
		f = append(f, MsgPrepFrag)
		f = binary.BigEndian.AppendUint64(f, tid)
		f = append(f, byte(total), byte(i))
		frames = append(frames, append(f, part...))
	}
	return frames
}

// ParsePrepFrag decodes a fragment body (the lead byte already consumed).
// The chunk aliases b.
func ParsePrepFrag(b []byte) (tid uint64, total, index int, chunk []byte, err error) {
	if len(b) < fragHeader-1 {
		return 0, 0, 0, nil, errBadXMsg
	}
	tid = binary.BigEndian.Uint64(b[0:8])
	total, index = int(b[8]), int(b[9])
	if total < 1 || total > MaxPrepFrags || index >= total {
		return 0, 0, 0, nil, errBadXMsg
	}
	return tid, total, index, b[10:], nil
}

// PartFor returns the part addressed to a group, or nil.
func (p *Prepare) PartFor(group int) *Part {
	for i := range p.Parts {
		if p.Parts[i].Group == group {
			return &p.Parts[i]
		}
	}
	return nil
}

// AppendVote encodes lead plus a vote body: the voting group and its verdict.
func AppendVote(buf []byte, lead byte, tid uint64, group int, commit bool) []byte {
	buf = append(buf, lead)
	buf = binary.BigEndian.AppendUint64(buf, tid)
	return append(buf, byte(group), boolByte(commit))
}

// ParseVote decodes a vote body.
func ParseVote(b []byte) (tid uint64, group int, commit bool, err error) {
	if len(b) < 10 {
		return 0, 0, false, errBadXMsg
	}
	return binary.BigEndian.Uint64(b[0:8]), int(b[8]), b[9] != 0, nil
}

// AppendDecision encodes lead plus a decision body.
func AppendDecision(buf []byte, lead byte, tid uint64, commit bool) []byte {
	buf = append(buf, lead)
	buf = binary.BigEndian.AppendUint64(buf, tid)
	return append(buf, boolByte(commit))
}

// ParseDecision decodes a decision body.
func ParseDecision(b []byte) (tid uint64, commit bool, err error) {
	if len(b) < 9 {
		return 0, false, errBadXMsg
	}
	return binary.BigEndian.Uint64(b[0:8]), b[8] != 0, nil
}

// AppendAck encodes lead plus an ack body: the acknowledging group.
func AppendAck(buf []byte, lead byte, tid uint64, group int) []byte {
	buf = append(buf, lead)
	buf = binary.BigEndian.AppendUint64(buf, tid)
	return append(buf, byte(group))
}

// ParseAck decodes an ack body.
func ParseAck(b []byte) (tid uint64, group int, err error) {
	if len(b) < 9 {
		return 0, 0, errBadXMsg
	}
	return binary.BigEndian.Uint64(b[0:8]), int(b[8]), nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
