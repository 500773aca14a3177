package gcs

import (
	"encoding/binary"
	"errors"

	"repro/internal/runtimeapi"
)

// Wire message kinds.
const (
	kindData      byte = iota + 1 // sender-stream chunk, first transmission or repair alike
	_                             // reserved: was the retransmission kind, whose chunks now travel as kindData
	kindNack                      // receiver-initiated repair request
	kindGossip                    // stability detection round state
	kindHeartbeat                 // liveness when otherwise idle
	kindPropose                   // view change: proposal
	kindFlushAck                  // view change: member state snapshot
	kindDecide                    // view change: decision
	kindInstalled                 // view change: member finished install
	kindJoinReq                   // recovery: a restarted node asks to be admitted
	kindJoinSync                  // recovery: sequencer tells a joiner its catch-up sequence
	kindAssignAck                 // receiver acks the sequencer's stream (uniform delivery)
	kindRelay                     // point-to-point cross-group payload (no ordering)
)

// Payload kinds carried inside data chunks.
const (
	payloadApp byte = iota + 1 // application message (certification traffic)
	payloadSeq                 // sequencer ordering assignments
)

// Fragment markers.
const (
	fragFull byte = iota // complete message in one chunk
	fragFirst
	fragMid
	fragLast
)

// errTruncated reports a malformed (short) wire message.
var errTruncated = errors.New("gcs: truncated message")

// dataMsg is one chunk of a sender's reliable stream.
type dataMsg struct {
	Sender  runtimeapi.NodeID
	Seq     uint64
	Frag    byte
	Payload byte // payloadApp or payloadSeq; meaningful on first/full chunk
	Data    []byte
}

const dataHeader = 1 + 4 + 8 + 1 + 1 + 2

func (m *dataMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindData)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Sender))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = append(buf, m.Frag, m.Payload)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Data)))
	buf = append(buf, m.Data...)
	return buf
}

// parseDataInto decodes a stream chunk into a caller-provided (typically
// pooled) struct, copying the chunk into the buffer m.Data already owns: a
// received datagram is only lent for its upcall, and the chunk is kept until
// it is stable.
func parseDataInto(m *dataMsg, b []byte) error {
	if len(b) < dataHeader {
		return errTruncated
	}
	n := int(binary.BigEndian.Uint16(b[15:17]))
	if len(b) < dataHeader+n {
		return errTruncated
	}
	m.Sender = runtimeapi.NodeID(binary.BigEndian.Uint32(b[1:5]))
	m.Seq = binary.BigEndian.Uint64(b[5:13])
	m.Frag = b[13]
	m.Payload = b[14]
	m.Data = append(m.Data[:0], b[dataHeader:dataHeader+n]...)
	return nil
}

// seqRange is a [From, To] inclusive range of missing sequence numbers.
type seqRange struct{ From, To uint64 }

// nackMsg requests retransmission of ranges from a sender's stream.
type nackMsg struct {
	Target runtimeapi.NodeID // stream owner
	Ranges []seqRange
}

func (m *nackMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindNack)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Target))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Ranges)))
	for _, r := range m.Ranges {
		buf = binary.BigEndian.AppendUint64(buf, r.From)
		buf = binary.BigEndian.AppendUint64(buf, r.To)
	}
	return buf
}

func parseNack(b []byte) (*nackMsg, error) {
	if len(b) < 7 {
		return nil, errTruncated
	}
	m := &nackMsg{Target: runtimeapi.NodeID(binary.BigEndian.Uint32(b[1:5]))}
	n := int(binary.BigEndian.Uint16(b[5:7]))
	if len(b) < 7+16*n {
		return nil, errTruncated
	}
	m.Ranges = make([]seqRange, n)
	for i := 0; i < n; i++ {
		off := 7 + 16*i
		m.Ranges[i] = seqRange{
			From: binary.BigEndian.Uint64(b[off : off+8]),
			To:   binary.BigEndian.Uint64(b[off+8 : off+16]),
		}
	}
	return m, nil
}

// gossipMsg carries one stability round's state: the set W of voters (as a
// bitmask over view member positions), the vector M of per-sender contiguous
// sequence numbers received by all voters, and the vector S of known-stable
// sequence numbers (Section 3.4). H is the gossiping member's own contiguous
// receive vector: it lets receivers detect losses at the tail of a stream
// (when no later packet would reveal the gap) and trigger NACK repair.
type gossipMsg struct {
	ViewID uint32
	Round  uint64
	W      uint32
	M      []uint64
	S      []uint64
	H      []uint64
}

func (m *gossipMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindGossip)
	buf = binary.BigEndian.AppendUint32(buf, m.ViewID)
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint32(buf, m.W)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.M)))
	for _, v := range m.M {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, v := range m.S {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, v := range m.H {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf
}

// parseGossipInto decodes a gossip round into a reusable struct, growing its
// vectors in place (the decoded state is consumed synchronously).
func parseGossipInto(m *gossipMsg, b []byte) error {
	if len(b) < 19 {
		return errTruncated
	}
	n := int(binary.BigEndian.Uint16(b[17:19]))
	if len(b) < 19+24*n {
		return errTruncated
	}
	m.ViewID = binary.BigEndian.Uint32(b[1:5])
	m.Round = binary.BigEndian.Uint64(b[5:13])
	m.W = binary.BigEndian.Uint32(b[13:17])
	m.M = growUint64(m.M, n)
	m.S = growUint64(m.S, n)
	m.H = growUint64(m.H, n)
	for i := 0; i < n; i++ {
		m.M[i] = binary.BigEndian.Uint64(b[19+8*i:])
	}
	for i := 0; i < n; i++ {
		m.S[i] = binary.BigEndian.Uint64(b[19+8*n+8*i:])
	}
	for i := 0; i < n; i++ {
		m.H[i] = binary.BigEndian.Uint64(b[19+16*n+8*i:])
	}
	return nil
}

func growUint64(v []uint64, n int) []uint64 {
	if cap(v) < n {
		return make([]uint64, n)
	}
	return v[:n]
}

// seqAssign is one total-order assignment: global sequence number for the
// message identified by (Sender, Seq).
type seqAssign struct {
	Sender runtimeapi.NodeID
	Seq    uint64
	Global uint64
}

// marshalAssigns encodes a batch of assignments, appending to buf[:0] (the
// sequencer passes its reusable scratch; the result aliases it when it
// fits). The caller must finish using the encoding before reusing buf.
func marshalAssigns(buf []byte, assigns []seqAssign) []byte {
	if need := 2 + 20*len(assigns); cap(buf) < need {
		// capacity miss grows the sequencer's scratch once, then amortised free
		buf = make([]byte, 0, need)
	}
	buf = buf[:0]
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(assigns)))
	for _, a := range assigns {
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.Sender))
		buf = binary.BigEndian.AppendUint64(buf, a.Seq)
		buf = binary.BigEndian.AppendUint64(buf, a.Global)
	}
	return buf
}

// parseAssignsInto decodes an assignment batch, appending to buf[:0] (a
// reusable scratch — the decoded batch is consumed synchronously).
func parseAssignsInto(buf []seqAssign, b []byte) ([]seqAssign, error) {
	if len(b) < 2 {
		return nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if len(b) < 2+20*n {
		return nil, errTruncated
	}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		off := 2 + 20*i
		buf = append(buf, seqAssign{
			Sender: runtimeapi.NodeID(binary.BigEndian.Uint32(b[off : off+4])),
			Seq:    binary.BigEndian.Uint64(b[off+4 : off+12]),
			Global: binary.BigEndian.Uint64(b[off+12 : off+20]),
		})
	}
	return buf, nil
}

// heartbeatMsg keeps failure detectors quiet during idle periods.
type heartbeatMsg struct{ ViewID uint32 }

func (m *heartbeatMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindHeartbeat)
	return binary.BigEndian.AppendUint32(buf, m.ViewID)
}

// proposeMsg starts a view change: the coordinator proposes a new membership.
// Members are the surviving old-view members, who must flush; Joiners are
// recovering nodes admitted without flushing (they hold no old-view state and
// state-transfer the database instead).
type proposeMsg struct {
	NewViewID uint32
	Proposer  runtimeapi.NodeID
	Members   []runtimeapi.NodeID
	Joiners   []runtimeapi.NodeID
}

func (m *proposeMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindPropose)
	buf = binary.BigEndian.AppendUint32(buf, m.NewViewID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Proposer))
	buf = appendNodeList(buf, m.Members)
	buf = appendNodeList(buf, m.Joiners)
	return buf
}

func parsePropose(b []byte) (*proposeMsg, error) {
	if len(b) < 9 {
		return nil, errTruncated
	}
	m := &proposeMsg{
		NewViewID: binary.BigEndian.Uint32(b[1:5]),
		Proposer:  runtimeapi.NodeID(binary.BigEndian.Uint32(b[5:9])),
	}
	var err error
	off := 9
	if m.Members, off, err = parseNodeList(b, off); err != nil {
		return nil, err
	}
	if m.Joiners, _, err = parseNodeList(b, off); err != nil {
		return nil, err
	}
	return m, nil
}

// appendNodeList encodes [count:2][id:4]*count.
func appendNodeList(buf []byte, ids []runtimeapi.NodeID) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// parseNodeList decodes a node list at off, returning the next offset.
func parseNodeList(b []byte, off int) ([]runtimeapi.NodeID, int, error) {
	if len(b) < off+2 {
		return nil, 0, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if len(b) < off+4*n {
		return nil, 0, errTruncated
	}
	if n == 0 {
		return nil, off, nil
	}
	ids := make([]runtimeapi.NodeID, n)
	for i := range ids {
		ids[i] = runtimeapi.NodeID(binary.BigEndian.Uint32(b[off+4*i:]))
	}
	return ids, off + 4*n, nil
}

// flushAckMsg is a member's snapshot answering a proposal: per old-view
// sender, the highest contiguously received sequence number.
type flushAckMsg struct {
	NewViewID uint32
	Contig    []memberSeq
}

// memberSeq pairs a member with a sequence number.
type memberSeq struct {
	Member runtimeapi.NodeID
	Seq    uint64
}

func (m *flushAckMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindFlushAck)
	buf = binary.BigEndian.AppendUint32(buf, m.NewViewID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Contig)))
	for _, c := range m.Contig {
		buf = binary.BigEndian.AppendUint32(buf, uint32(c.Member))
		buf = binary.BigEndian.AppendUint64(buf, c.Seq)
	}
	return buf
}

func parseFlushAck(b []byte) (*flushAckMsg, error) {
	if len(b) < 7 {
		return nil, errTruncated
	}
	m := &flushAckMsg{NewViewID: binary.BigEndian.Uint32(b[1:5])}
	n := int(binary.BigEndian.Uint16(b[5:7]))
	if len(b) < 7+12*n {
		return nil, errTruncated
	}
	m.Contig = make([]memberSeq, n)
	for i := 0; i < n; i++ {
		off := 7 + 12*i
		m.Contig[i] = memberSeq{
			Member: runtimeapi.NodeID(binary.BigEndian.Uint32(b[off : off+4])),
			Seq:    binary.BigEndian.Uint64(b[off+4 : off+12]),
		}
	}
	return m, nil
}

// decideMsg concludes a view change: the new membership (survivors plus
// joiners), plus for every old member the flush target (highest sequence
// anyone received) and the holder to NACK for repair. Joiners skip the
// repair phase: the flush targets instead become their stream cursors, so
// they start receiving exactly where the old view's traffic — covered by the
// database snapshot they transfer — ends.
type decideMsg struct {
	NewViewID uint32
	Proposer  runtimeapi.NodeID
	Members   []runtimeapi.NodeID
	Joiners   []runtimeapi.NodeID
	Targets   []flushTarget
}

type flushTarget struct {
	Member runtimeapi.NodeID
	Seq    uint64
	Holder runtimeapi.NodeID
}

func (m *decideMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindDecide)
	buf = binary.BigEndian.AppendUint32(buf, m.NewViewID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Proposer))
	buf = appendNodeList(buf, m.Members)
	buf = appendNodeList(buf, m.Joiners)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Targets)))
	for _, t := range m.Targets {
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.Member))
		buf = binary.BigEndian.AppendUint64(buf, t.Seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.Holder))
	}
	return buf
}

func parseDecide(b []byte) (*decideMsg, error) {
	if len(b) < 9 {
		return nil, errTruncated
	}
	m := &decideMsg{
		NewViewID: binary.BigEndian.Uint32(b[1:5]),
		Proposer:  runtimeapi.NodeID(binary.BigEndian.Uint32(b[5:9])),
	}
	var err error
	off := 9
	if m.Members, off, err = parseNodeList(b, off); err != nil {
		return nil, err
	}
	if m.Joiners, off, err = parseNodeList(b, off); err != nil {
		return nil, err
	}
	if len(b) < off+2 {
		return nil, errTruncated
	}
	nt := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if len(b) < off+16*nt {
		return nil, errTruncated
	}
	m.Targets = make([]flushTarget, nt)
	for i := 0; i < nt; i++ {
		o := off + 16*i
		m.Targets[i] = flushTarget{
			Member: runtimeapi.NodeID(binary.BigEndian.Uint32(b[o : o+4])),
			Seq:    binary.BigEndian.Uint64(b[o+4 : o+12]),
			Holder: runtimeapi.NodeID(binary.BigEndian.Uint32(b[o+12 : o+16])),
		}
	}
	return m, nil
}

// joinReqMsg is a recovering node's request to be admitted to the group. It
// is multicast periodically until the node both installs a view containing
// it and learns its catch-up sequence. Installed is the view the joiner has
// installed so far: zero means a fresh incarnation that needs a view change
// (even if the group still lists its dead predecessor as a member); nonzero
// marks an admitted member still waiting for its joinSync, which the
// sequencer answers by resending it.
type joinReqMsg struct {
	Node      runtimeapi.NodeID
	Installed uint32
}

func (m *joinReqMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindJoinReq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Node))
	return binary.BigEndian.AppendUint32(buf, m.Installed)
}

func parseJoinReq(b []byte) (*joinReqMsg, error) {
	if len(b) < 9 {
		return nil, errTruncated
	}
	return &joinReqMsg{
		Node:      runtimeapi.NodeID(binary.BigEndian.Uint32(b[1:5])),
		Installed: binary.BigEndian.Uint32(b[5:9]),
	}, nil
}

// joinSyncMsg tells a joiner the total-order sequence it must catch up to:
// every message ordered at or below JoinSeq is covered by the database
// snapshot the joiner transfers from a donor; everything above it arrives
// through normal deliveries. Only the sequencer sends it — it is the one
// member guaranteed to have assigned (hence to know) the full old-view
// order.
type joinSyncMsg struct {
	ViewID  uint32
	JoinSeq uint64
}

func (m *joinSyncMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindJoinSync)
	buf = binary.BigEndian.AppendUint32(buf, m.ViewID)
	return binary.BigEndian.AppendUint64(buf, m.JoinSeq)
}

func parseJoinSync(b []byte) (*joinSyncMsg, error) {
	if len(b) < 13 {
		return nil, errTruncated
	}
	return &joinSyncMsg{
		ViewID:  binary.BigEndian.Uint32(b[1:5]),
		JoinSeq: binary.BigEndian.Uint64(b[5:13]),
	}, nil
}

// assignAckMsg is a receiver's positive acknowledgement of the sequencer's
// stream, sent whenever an ordering announcement is processed: Seq is the
// receiver's contiguous prefix of the sequencer's stream, which doubles as
// its credit cursor. The sequencer gates delivery of its self-assigned
// globals on a majority of these (uniform delivery); stability gossip
// horizons carry the same cursor as the slow-path fallback, so a lost ack
// costs at most one gossip period.
type assignAckMsg struct {
	ViewID uint32
	Seq    uint64
}

const assignAckLen = 1 + 4 + 8

func (m *assignAckMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindAssignAck)
	buf = binary.BigEndian.AppendUint32(buf, m.ViewID)
	return binary.BigEndian.AppendUint64(buf, m.Seq)
}

func parseAssignAck(b []byte) (*assignAckMsg, error) {
	if len(b) < assignAckLen {
		return nil, errTruncated
	}
	return &assignAckMsg{
		ViewID: binary.BigEndian.Uint32(b[1:5]),
		Seq:    binary.BigEndian.Uint64(b[5:13]),
	}, nil
}

// installedMsg acknowledges that a member finished installing a view.
type installedMsg struct{ NewViewID uint32 }

func (m *installedMsg) marshal(buf []byte) []byte {
	buf = append(buf, kindInstalled)
	return binary.BigEndian.AppendUint32(buf, m.NewViewID)
}

func parseInstalled(b []byte) (*installedMsg, error) {
	if len(b) < 5 {
		return nil, errTruncated
	}
	return &installedMsg{NewViewID: binary.BigEndian.Uint32(b[1:5])}, nil
}
