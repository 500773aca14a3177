package check

import (
	"strings"
	"testing"

	"repro/internal/dbsm"
	"repro/internal/trace"
)

// hist builds a commit history from (seq, tid) pairs.
func hist(entries ...[2]uint64) []trace.CommitEntry {
	out := make([]trace.CommitEntry, len(entries))
	for i, e := range entries {
		out[i] = trace.CommitEntry{Seq: e[0], TID: e[1]}
	}
	return out
}

func site(id dbsm.SiteID, op bool, entries ...[2]uint64) SiteLog {
	return SiteLog{Site: id, Operational: op, Entries: hist(entries...)}
}

func TestIdenticalLogsAreSafe(t *testing.T) {
	v := Logs([]SiteLog{
		site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
		site(2, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
		site(3, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
	})
	if v != nil {
		t.Fatalf("identical logs flagged: %v", v)
	}
}

func TestNoOperationalSitesVacuouslySafe(t *testing.T) {
	if v := Logs([]SiteLog{site(1, false, [2]uint64{1, 1})}); v != nil {
		t.Fatalf("no-operational case should pass vacuously: %v", v)
	}
	if v := Logs(nil); v != nil {
		t.Fatalf("empty input should pass vacuously: %v", v)
	}
}

// TestMutationsAreDetectedAndNamed is the checker's self-test: feed
// deliberately corrupted histories — divergent, reordered, length-mismatched
// and non-prefix — and assert each violation kind is detected, attributed to
// the right site, and named correctly.
func TestMutationsAreDetectedAndNamed(t *testing.T) {
	cases := []struct {
		name     string
		sites    []SiteLog
		kind     Kind
		site     dbsm.SiteID
		pos      int
		wantText string
	}{
		{
			name: "divergent entry",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
				site(2, true, [2]uint64{1, 10}, [2]uint64{2, 99}),
			},
			kind: KindDivergence, site: 2, pos: 1, wantText: "divergence",
		},
		{
			name: "divergent sequence numbers",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
				site(2, true, [2]uint64{1, 10}, [2]uint64{3, 20}),
			},
			// Same TIDs but disagreeing certification sequence numbers:
			// the multiset of (seq, tid) pairs differs positionally while
			// TIDs match, which sameTxnSet classifies as a reorder of the
			// same transactions.
			kind: KindReorder, site: 2, pos: 1, wantText: "reorder",
		},
		{
			name: "reordered history",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30}),
				site(2, true, [2]uint64{1, 10}, [2]uint64{2, 30}, [2]uint64{3, 20}),
			},
			kind: KindReorder, site: 2, pos: 1, wantText: "reorder",
		},
		{
			name: "length mismatch between operational sites",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
				site(2, true, [2]uint64{1, 10}),
			},
			kind: KindLengthMismatch, site: 2, pos: -1, wantText: "length-mismatch",
		},
		{
			name: "stopped site diverges inside its prefix",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30}),
				site(3, false, [2]uint64{1, 99}),
			},
			kind: KindNonPrefix, site: 3, pos: 0, wantText: "non-prefix",
		},
		{
			name: "stopped site committed beyond survivors",
			sites: []SiteLog{
				site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}),
				site(3, false, [2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30}),
			},
			kind: KindNonPrefix, site: 3, pos: 2, wantText: "non-prefix",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := Logs(tc.sites)
			if v == nil {
				t.Fatal("mutation not detected")
			}
			if v.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", v.Kind, tc.kind)
			}
			if v.Site != tc.site {
				t.Fatalf("offending site = %d, want %d", v.Site, tc.site)
			}
			if v.Pos != tc.pos {
				t.Fatalf("position = %d, want %d", v.Pos, tc.pos)
			}
			if !strings.Contains(v.Error(), tc.wantText) {
				t.Fatalf("error %q does not name kind %q", v.Error(), tc.wantText)
			}
		})
	}
}

func TestStoppedSitePrefixAllowed(t *testing.T) {
	v := Logs([]SiteLog{
		site(1, true, [2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30}),
		site(2, true, [2]uint64{1, 10}, [2]uint64{2, 20}, [2]uint64{3, 30}),
		site(3, false, [2]uint64{1, 10}), // crashed or partitioned early
	})
	if v != nil {
		t.Fatalf("prefix log of a stopped site flagged: %v", v)
	}
}

func TestReferenceIsLowestOperationalSite(t *testing.T) {
	// Site 1 is down; site 2 becomes the reference, so the violation is
	// attributed to site 3 against reference 2.
	v := Logs([]SiteLog{
		site(1, false),
		site(2, true, [2]uint64{1, 10}),
		site(3, true, [2]uint64{1, 77}),
	})
	if v == nil {
		t.Fatal("divergence not detected")
	}
	if v.Ref != 2 || v.Site != 3 {
		t.Fatalf("attribution site=%d ref=%d, want site=3 ref=2", v.Site, v.Ref)
	}
}

func TestFromCommitLogs(t *testing.T) {
	a, b := &trace.CommitLog{}, &trace.CommitLog{}
	a.Append(1, 10)
	b.Append(1, 10)
	b.Append(2, 20)
	logs := map[dbsm.SiteID]*trace.CommitLog{1: a, 2: b}
	sites := FromCommitLogs(logs, map[dbsm.SiteID]bool{1: false, 2: true})
	if v := Logs(sites); v != nil {
		t.Fatalf("prefix case flagged: %v", v)
	}
	sites = FromCommitLogs(logs, map[dbsm.SiteID]bool{1: true, 2: true})
	v := Logs(sites)
	if v == nil || v.Kind != KindLengthMismatch {
		t.Fatalf("operational length mismatch not flagged: %v", v)
	}
}

// TestDuplicateCommitNamesBothPositions: a TID committed at positions 1 and
// 3 of site 2 is reported at position 3 with both positions in the detail.
// Site 1 commits tid 0x30 too, and site 2 commits it once: the scan is per
// site.
func TestDuplicateCommitNamesBothPositions(t *testing.T) {
	v := Logs([]SiteLog{
		site(1, true, [2]uint64{1, 0x30}),
		site(2, true, [2]uint64{1, 0x30}, [2]uint64{2, 0x2a}, [2]uint64{3, 0x40}, [2]uint64{4, 0x2a}),
	})
	want := Violation{
		Kind: KindDuplicate, Site: 2, Ref: 2, Pos: 3,
		Detail: "tid=2a committed at position 1 and again at position 3",
	}
	if v == nil || *v != want {
		t.Fatalf("Logs = %+v, want %+v", v, want)
	}
}
