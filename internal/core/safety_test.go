package core

import (
	"testing"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runModel runs a config and returns both the model (for commit-log access)
// and its results — the shape the promoted safety regressions need.
func runModel(t *testing.T, cfg Config) (*Model, *Results) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

// siteLogs assembles checker input from a finished model.
func siteLogs(m *Model) []check.SiteLog {
	out := make([]check.SiteLog, 0, len(m.Sites()))
	for _, s := range m.Sites() {
		out = append(out, check.SiteLog{
			Site:        s.ID,
			Operational: s.operational(),
			Entries:     s.Replica.CommitLog().Entries(),
		})
	}
	return out
}

// TestCrashedSiteLogIsPrefixOfSurvivors promotes cmd/faultsim's inline
// crashed-site check into a CI regression: after a mid-run crash, the
// internal/check safety condition must hold, and the crashed site's log must
// be a strict, non-empty prefix of the survivors' common sequence.
func TestCrashedSiteLogIsPrefixOfSurvivors(t *testing.T) {
	m, r := runModel(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 400,
		Seed:      21,
		Faults: faults.Config{
			Crashes: []faults.Crash{{Site: 3, At: 15 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under crash: %v", r.SafetyErr)
	}
	logs := siteLogs(m)
	if v := check.Logs(logs); v != nil {
		t.Fatalf("checker flagged a safe run: %v", v)
	}
	var crashed, survivor []check.SiteLog
	for _, l := range logs {
		if l.Operational {
			survivor = append(survivor, l)
		} else {
			crashed = append(crashed, l)
		}
	}
	if len(crashed) != 1 || len(survivor) != 2 {
		t.Fatalf("crashed=%d survivors=%d", len(crashed), len(survivor))
	}
	if n := len(crashed[0].Entries); n == 0 {
		t.Fatal("crashed site committed nothing before the crash")
	} else if n >= len(survivor[0].Entries) {
		t.Fatalf("crashed site's %d commits not a strict prefix of the survivors' %d", n, len(survivor[0].Entries))
	}
	for i, e := range crashed[0].Entries {
		if e != survivor[0].Entries[i] {
			t.Fatalf("prefix mismatch at %d: %+v vs %+v", i, e, survivor[0].Entries[i])
		}
	}
	// The mutation side of the regression: corrupting the crashed site's
	// last entry must flip the verdict to non-prefix.
	mutated := crashed[0]
	mutated.Entries = append([]trace.CommitEntry{}, mutated.Entries...)
	mutated.Entries[len(mutated.Entries)-1].TID ^= 0xdead
	v := check.Logs([]check.SiteLog{survivor[0], survivor[1], mutated})
	if v == nil || v.Kind != check.KindNonPrefix {
		t.Fatalf("corrupted crashed log not flagged as non-prefix: %v", v)
	}
}

// TestPartitionMinorityPrefixAndMajorityProgress: a partition-and-heal
// schedule must leave the majority committing (after a view change excludes
// the minority) and the minority's log a prefix of the survivors'.
func TestPartitionMinorityPrefixAndMajorityProgress(t *testing.T) {
	m, r := runModel(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 400,
		Seed:      22,
		Faults: faults.Config{
			Partitions: []faults.Partition{{Sites: []int32{3}, At: 10 * sim.Second, Heal: 25 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under partition: %v", r.SafetyErr)
	}
	if r.GCS.ViewChanges == 0 {
		t.Fatal("majority never installed a view excluding the minority")
	}
	var minority, majority *Site
	for _, s := range m.Sites() {
		if s.partitioned {
			minority = s
		} else if majority == nil {
			majority = s
		}
	}
	if minority == nil || minority.ID != 3 {
		t.Fatal("site 3 not marked partitioned")
	}
	if !minority.Stack.Stopped() {
		t.Fatal("minority member did not wedge on quorum loss")
	}
	majLog := majority.Replica.CommitLog().Entries()
	minLog := minority.Replica.CommitLog().Entries()
	if len(minLog) == 0 {
		t.Fatal("minority committed nothing before the cut")
	}
	if len(minLog) >= len(majLog) {
		t.Fatalf("minority log (%d) not a strict prefix of the majority's (%d)", len(minLog), len(majLog))
	}
	for _, sr := range r.Sites {
		if sr.Site == 3 {
			if !sr.Partitioned {
				t.Fatal("results do not report site 3 as partitioned")
			}
		} else if sr.Committed == 0 {
			t.Fatalf("majority site %d committed nothing", sr.Site)
		}
	}
}

// TestPartitionValidation rejects non-minority, ill-ordered, overlapping,
// and quorum-breaking fault combinations — and accepts sequential cuts.
func TestPartitionValidation(t *testing.T) {
	bad := []faults.Config{
		{Partitions: []faults.Partition{{Sites: []int32{1, 2}, At: sim.Second}}},                    // majority isolated
		{Partitions: []faults.Partition{{Sites: nil, At: sim.Second}}},                              // empty
		{Partitions: []faults.Partition{{Sites: []int32{9}, At: sim.Second}}},                       // unknown site
		{Partitions: []faults.Partition{{Sites: []int32{3}, At: 2 * sim.Second, Heal: sim.Second}}}, // heals before cut
		{Partitions: []faults.Partition{ // overlapping cuts
			{Sites: []int32{3}, At: sim.Second, Heal: 10 * sim.Second},
			{Sites: []int32{2}, At: 5 * sim.Second, Heal: 15 * sim.Second},
		}},
		{Partitions: []faults.Partition{ // a never-healing cut followed by another
			{Sites: []int32{3}, At: sim.Second},
			{Sites: []int32{2}, At: 5 * sim.Second, Heal: 15 * sim.Second},
		}},
		{ // crash + partition disable 2 of 3 sites: no strict majority left
			Crashes:    []faults.Crash{{Site: 2, At: sim.Second}},
			Partitions: []faults.Partition{{Sites: []int32{3}, At: 5 * sim.Second}},
		},
	}
	for i, f := range bad {
		if _, err := New(Config{Sites: 3, Faults: f}); err == nil {
			t.Fatalf("case %d: invalid fault combination accepted", i)
		}
	}
	// Sequential, non-overlapping cuts of the same minority are fine.
	ok := faults.Config{Partitions: []faults.Partition{
		{Sites: []int32{3}, At: sim.Second, Heal: 2 * sim.Second},
		{Sites: []int32{3}, At: 5 * sim.Second, Heal: 6 * sim.Second},
	}}
	if _, err := New(Config{Sites: 3, Faults: ok}); err != nil {
		t.Fatalf("sequential partitions rejected: %v", err)
	}
}

// TestCrashOnlyMajorityRefused: a run with crashes and no partition is held
// to the same strict-majority rule, with the same error, as one with a
// partition. Crashing sites 3 and 2 of 3 could only end wedged, so New
// refuses it up front; crashing one of them is accepted.
func TestCrashOnlyMajorityRefused(t *testing.T) {
	majority := faults.Config{Crashes: []faults.Crash{{Site: 3, At: 5 * sim.Second}, {Site: 2, At: 10 * sim.Second}}}
	const want = "core: crashes and partitions disable 2 of group 1's 3 sites; a strict majority must survive in every group"
	if _, err := New(Config{Sites: 3, Faults: majority}); err == nil || err.Error() != want {
		t.Fatalf("New with a majority crashed: err = %v, want %q", err, want)
	}
	minority := faults.Config{Crashes: majority.Crashes[:1]}
	if _, err := New(Config{Sites: 3, Faults: minority}); err != nil {
		t.Fatalf("New with one site of three crashed: %v", err)
	}
}

// TestShortPartitionHealsBeforeDetection: a cut shorter than the failure
// detector's timeout must be absorbed by retransmission — no view change,
// no wedge, and full agreement (the minority log is held to the prefix rule
// but in fact catches back up).
func TestShortPartitionHealsBeforeDetection(t *testing.T) {
	m, r := runModel(t, Config{
		Sites:     3,
		Clients:   45,
		TotalTxns: 250,
		Seed:      23,
		Faults: faults.Config{
			Partitions: []faults.Partition{{Sites: []int32{2}, At: 8 * sim.Second, Heal: 8*sim.Second + 400*sim.Millisecond}},
		},
		MaxSimTime: 10 * sim.Minute,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under short partition: %v", r.SafetyErr)
	}
	if r.GCS.QuorumLosses != 0 {
		t.Fatalf("quorum losses = %d for a sub-timeout cut", r.GCS.QuorumLosses)
	}
	for _, s := range m.Sites() {
		if s.Stack.Stopped() {
			t.Fatalf("site %d wedged under a sub-timeout cut", s.ID)
		}
	}
}
