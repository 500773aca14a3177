// Package check is the reusable one-copy-serializability checker behind the
// paper's off-line safety condition (Section 5.3): after a run, every
// operational site must have committed exactly the same sequence of
// transactions, and a site that stopped participating — because it crashed
// or ended up in a partitioned minority — must have committed a prefix of
// the survivors' sequence.
//
// Unlike an ad-hoc log comparison, the checker classifies what went wrong:
// a Violation names the offending site, the first bad position, and a Kind
// distinguishing divergent histories from reordered ones and from
// non-prefix logs, so randomized fault campaigns can aggregate verdicts per
// failure mode and a single failing schedule reads as a precise bug report.
package check

import (
	"fmt"
	"sort"

	"repro/internal/dbsm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind classifies a safety violation.
type Kind int

// Violation kinds.
const (
	// KindDivergence: two operational sites committed different
	// transactions at the same position (and the histories are not a mere
	// permutation of each other).
	KindDivergence Kind = iota + 1
	// KindReorder: two operational sites committed the same set of
	// transactions in different orders — the total-order property broke
	// while atomicity held.
	KindReorder
	// KindLengthMismatch: two operational sites agree on their common
	// prefix but committed different numbers of transactions.
	KindLengthMismatch
	// KindNonPrefix: a crashed or partitioned-minority site's log is not a
	// prefix of the survivors' — it either committed a transaction the
	// survivors ordered differently, or committed beyond them.
	KindNonPrefix
	// KindDuplicate: one site committed the same transaction identifier
	// twice — the idempotent-resubmission guarantee broke (a rejected
	// transaction that was retried must commit at most once).
	KindDuplicate
	// KindAtomicity: under partial replication, two groups resolved the same
	// cross-group transaction differently — one installed it as committed
	// while another recorded an abort. The atomic-commit round must never
	// let the per-group decisions diverge.
	KindAtomicity
	// KindCrossCycle: the per-group install orders of committed cross-group
	// transactions form a cycle in the conflict serialization graph — the
	// groups disagree on the relative order of conflicting transactions, so
	// no single serial history explains the run.
	KindCrossCycle
)

// String names the violation kind.
func (k Kind) String() string {
	switch k {
	case KindDivergence:
		return "divergence"
	case KindReorder:
		return "reorder"
	case KindLengthMismatch:
		return "length-mismatch"
	case KindNonPrefix:
		return "non-prefix"
	case KindDuplicate:
		return "double-commit"
	case KindAtomicity:
		return "atomicity"
	case KindCrossCycle:
		return "cross-group-cycle"
	default:
		return "unknown"
	}
}

// SiteLog is one site's committed sequence plus its liveness at the end of
// the run. Operational is false for sites that stopped participating
// (crashed, or isolated in a partitioned minority); their logs are held to
// the weaker prefix condition. Recovered marks a site that crashed and
// rejoined: an operational recovered site is held to full equality like any
// survivor — its snapshot-installed log must have re-converged — and the
// flag lets a violation name the rejoin as the likely culprit.
type SiteLog struct {
	Site        dbsm.SiteID
	Operational bool
	Recovered   bool
	Entries     []trace.CommitEntry
}

// Violation is one detected safety violation. It implements error so
// callers can carry it in error-typed fields.
type Violation struct {
	Kind Kind
	// Site is the offending site, Ref the reference (first operational)
	// site it was compared against.
	Site, Ref dbsm.SiteID
	// Group is the replication group the violation was detected in (0 when
	// the run used full replication or the violation spans groups; then Ref
	// carries the second group for cross-group kinds).
	Group int
	// Pos is the first differing position, or -1 when only the lengths
	// differ.
	Pos int
	// Detail is a human-readable elaboration.
	Detail string
}

// Error renders the violation.
func (v *Violation) Error() string {
	switch v.Kind {
	case KindAtomicity, KindCrossCycle:
		// Cross-group kinds compare groups, not sites: Site/Ref hold the
		// two canonical group ids whose records disagree.
		return fmt.Sprintf("check: %s: group %d vs group %d at position %d: %s",
			v.Kind, v.Site, v.Ref, v.Pos, v.Detail)
	}
	if v.Group != 0 {
		return fmt.Sprintf("check: %s: group %d: site %d vs site %d at position %d: %s",
			v.Kind, v.Group, v.Site, v.Ref, v.Pos, v.Detail)
	}
	return fmt.Sprintf("check: %s: site %d vs site %d at position %d: %s",
		v.Kind, v.Site, v.Ref, v.Pos, v.Detail)
}

// Logs verifies the safety condition over per-site commit logs and returns
// the first violation in site order, or nil when the run was safe. The
// reference is the lowest-numbered operational site; with no operational
// site the condition holds vacuously.
func Logs(sites []SiteLog) *Violation {
	ordered := make([]SiteLog, len(sites))
	copy(ordered, sites)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Site < ordered[j].Site })

	// Per-site duplicate scan first: a double commit poisons every other
	// comparison (the same TID at two positions can make two divergent logs
	// look like a permutation), so it is reported with its own kind.
	sc := takeScratch()
	defer scratches.Put(sc)
	for i := range ordered {
		if v := findDuplicate(&ordered[i], sc); v != nil {
			return v
		}
	}

	var ref *SiteLog
	for i := range ordered {
		if ordered[i].Operational {
			ref = &ordered[i]
			break
		}
	}
	if ref == nil {
		return nil
	}
	for i := range ordered {
		s := &ordered[i]
		if s.Site == ref.Site {
			continue
		}
		if v := compare(s, ref); v != nil {
			return v
		}
	}
	return nil
}

// compare checks one site against the reference log.
func compare(s, ref *SiteLog) *Violation {
	n := len(s.Entries)
	if len(ref.Entries) < n {
		n = len(ref.Entries)
	}
	for i := 0; i < n; i++ {
		if s.Entries[i] != ref.Entries[i] {
			if !s.Operational {
				return &Violation{
					Kind: KindNonPrefix, Site: s.Site, Ref: ref.Site, Pos: i,
					Detail: fmt.Sprintf("stopped site committed (seq=%d tid=%x), survivors committed (seq=%d tid=%x)",
						s.Entries[i].Seq, s.Entries[i].TID, ref.Entries[i].Seq, ref.Entries[i].TID),
				}
			}
			kind := KindDivergence
			if sameTxnSet(s.Entries, ref.Entries) {
				kind = KindReorder
			}
			detail := fmt.Sprintf("committed (seq=%d tid=%x), reference committed (seq=%d tid=%x)",
				s.Entries[i].Seq, s.Entries[i].TID, ref.Entries[i].Seq, ref.Entries[i].TID)
			if s.Recovered {
				detail = "recovered site " + detail
			}
			return &Violation{Kind: kind, Site: s.Site, Ref: ref.Site, Pos: i, Detail: detail}
		}
	}
	switch {
	case s.Operational && len(s.Entries) != len(ref.Entries):
		detail := fmt.Sprintf("committed %d transactions, reference committed %d",
			len(s.Entries), len(ref.Entries))
		if s.Recovered {
			detail = "recovered site " + detail
		}
		return &Violation{Kind: KindLengthMismatch, Site: s.Site, Ref: ref.Site, Pos: -1, Detail: detail}
	case !s.Operational && len(s.Entries) > len(ref.Entries):
		return &Violation{
			Kind: KindNonPrefix, Site: s.Site, Ref: ref.Site, Pos: len(ref.Entries),
			Detail: fmt.Sprintf("stopped site committed %d transactions, beyond the survivors' %d",
				len(s.Entries), len(ref.Entries)),
		}
	}
	return nil
}

// findDuplicate scans one site's log for a transaction committed twice.
// Retried submissions make this reachable in principle: the client resubmits
// the same TID after a rejection, and both the original and the resubmission
// must never certify. The scan turns that bug into a first-class verdict.
func findDuplicate(s *SiteLog, sc *scratch) *Violation {
	first, i := sc.firstRepeat(len(s.Entries), func(i int) uint64 { return s.Entries[i].TID })
	if i < 0 {
		return nil
	}
	return &Violation{
		Kind: KindDuplicate, Site: s.Site, Ref: s.Site, Pos: i,
		Detail: fmt.Sprintf("tid=%x committed at position %d and again at position %d",
			s.Entries[i].TID, first, i),
	}
}

// scratch is the storage one check works in. It is emptied per site or group
// and shelved between checks, so a check reuses the tables an earlier one
// grew instead of allocating tables sized to the run.
type scratch struct {
	seen  dbsm.TupleMap[int]       // TID → position+1, for the duplicate scans
	first dbsm.TupleMap[xDecision] // TID → first decision, for CrossGroup's atomicity
	x     xIndex                   // CrossGroup's serialization graph
}

// scratches holds the storage of finished checks.
var scratches sim.Shelf[*scratch]

// takeScratch returns shelved storage, or new storage when none is shelved.
func takeScratch() *scratch {
	if sc, ok := scratches.Get(); ok {
		return sc
	}
	return new(scratch)
}

// firstRepeat scans the TIDs tid(0), …, tid(n-1) and returns the first
// position at whose TID is also at an earlier position, and that earlier
// position first; at is -1 when the n TIDs all differ.
func (sc *scratch) firstRepeat(n int, tid func(int) uint64) (first, at int) {
	sc.seen.Clear()
	for i := range n {
		k := dbsm.TupleID(tid(i))
		if f := sc.seen.Get(k); f != 0 {
			return f - 1, i
		}
		sc.seen.Put(k, i+1)
	}
	return -1, -1
}

// sameTxnSet reports whether two histories commit the same multiset of
// transaction identifiers (in which case a mismatch is a reordering rather
// than outright divergence).
func sameTxnSet(a, b []trace.CommitEntry) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[uint64]int, len(a))
	for _, e := range a {
		counts[e.TID]++
	}
	for _, e := range b {
		counts[e.TID]--
		if counts[e.TID] < 0 {
			return false
		}
	}
	return true
}

// FromCommitLogs adapts per-site trace.CommitLogs plus an operational map
// (the shape core assembles after a run) into checker input.
func FromCommitLogs(logs map[dbsm.SiteID]*trace.CommitLog, operational map[dbsm.SiteID]bool) []SiteLog {
	out := make([]SiteLog, 0, len(logs))
	for id, l := range logs {
		out = append(out, SiteLog{Site: id, Operational: operational[id], Entries: l.Entries()})
	}
	return out
}
