package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

func run(t *testing.T, cfg Config) *Results {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCentralizedBaseline(t *testing.T) {
	r := run(t, Config{
		Sites:     1,
		Clients:   50,
		TotalTxns: 300,
		Seed:      1,
	})
	if r.Issued != 300 {
		t.Fatalf("issued = %d", r.Issued)
	}
	if r.Committed+r.Aborted != r.Submitted {
		t.Fatalf("accounting: submitted=%d committed=%d aborted=%d",
			r.Submitted, r.Committed, r.Aborted)
	}
	if r.Committed < 250 {
		t.Fatalf("committed = %d, too many aborts for a light load", r.Committed)
	}
	if r.TPM <= 0 || r.MeanLatencyMS <= 0 {
		t.Fatalf("metrics empty: %s", r.Summary())
	}
	if r.NetKBps != 0 {
		t.Fatalf("centralized run produced network traffic: %v KB/s", r.NetKBps)
	}
	if len(r.Classes) == 0 {
		t.Fatal("no class breakdown")
	}
}

func TestReplicatedThreeSites(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 400,
		Seed:      2,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("inconsistencies = %d", r.Inconsistencies)
	}
	if r.Committed < 300 {
		t.Fatalf("committed = %d", r.Committed)
	}
	if r.NetKBps <= 0 {
		t.Fatal("no network traffic in a replicated run")
	}
	if r.GCS.Delivered == 0 {
		t.Fatal("no total-order deliveries")
	}
	if r.CertLat.N() == 0 {
		t.Fatal("no certification latency samples")
	}
	// Update transactions must replicate: every site applies remote
	// write-sets.
	for _, sr := range r.Sites {
		if sr.RemoteApplied == 0 {
			t.Fatalf("site %d applied no remote transactions", sr.Site)
		}
	}
}

func TestReplicatedRunIsDeterministic(t *testing.T) {
	cfg := Config{Sites: 3, Clients: 30, TotalTxns: 200, Seed: 77}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Committed != b.Committed || a.Aborted != b.Aborted ||
		a.TPM != b.TPM || a.Events != b.Events {
		t.Fatalf("replay diverged:\n a=%s (events %d)\n b=%s (events %d)",
			a.Summary(), a.Events, b.Summary(), b.Events)
	}
}

func TestSeedChangesRun(t *testing.T) {
	a := run(t, Config{Sites: 1, Clients: 30, TotalTxns: 200, Seed: 1})
	b := run(t, Config{Sites: 1, Clients: 30, TotalTxns: 200, Seed: 2})
	if a.Events == b.Events && a.MeanLatencyMS == b.MeanLatencyMS {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestRandomLossKeepsSafety(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 300,
		Seed:      3,
		Faults: faults.Config{
			Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
		},
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under random loss: %v", r.SafetyErr)
	}
	if r.GCS.Retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	if r.Committed < 200 {
		t.Fatalf("committed = %d", r.Committed)
	}
}

func TestBurstyLossKeepsSafety(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 300,
		Seed:      4,
		Faults: faults.Config{
			Loss: faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5},
		},
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under bursty loss: %v", r.SafetyErr)
	}
}

func TestCrashKeepsSafetyAndSurvivorsContinue(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   60,
		TotalTxns: 400,
		Seed:      5,
		Faults: faults.Config{
			Crashes: []faults.Crash{{Site: 3, At: 20 * sim.Second}},
		},
		MaxSimTime: 10 * sim.Minute,
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under crash: %v", r.SafetyErr)
	}
	var crashed, live int
	for _, sr := range r.Sites {
		if sr.State == "crashed" {
			crashed++
		} else {
			live++
			if sr.Committed == 0 {
				t.Fatalf("live site %d committed nothing", sr.Site)
			}
		}
	}
	if crashed != 1 || live != 2 {
		t.Fatalf("crashed=%d live=%d", crashed, live)
	}
	if r.GCS.ViewChanges == 0 {
		t.Fatal("survivors never installed a new view")
	}
}

func TestClockDriftAndSchedLatencyKeepSafety(t *testing.T) {
	r := run(t, Config{
		Sites:     3,
		Clients:   45,
		TotalTxns: 250,
		Seed:      6,
		Faults: faults.Config{
			ClockDriftRate:    0.05,
			ClockDriftSites:   []int32{2},
			SchedLatencyMean:  2 * sim.Millisecond,
			SchedLatencySites: []int32{3},
		},
	})
	if r.SafetyErr != nil {
		t.Fatalf("safety under drift+latency: %v", r.SafetyErr)
	}
	if r.Committed < 150 {
		t.Fatalf("committed = %d", r.Committed)
	}
}

func TestMultiCPUHigherThroughputThanSingle(t *testing.T) {
	// At a load that saturates one CPU, three CPUs must commit the same
	// transactions in less time.
	one := run(t, Config{Sites: 1, CPUsPerSite: 1, Clients: 600, TotalTxns: 800, Seed: 7})
	three := run(t, Config{Sites: 1, CPUsPerSite: 3, Clients: 600, TotalTxns: 800, Seed: 7})
	if three.TPM <= one.TPM {
		t.Fatalf("3-CPU tpm %.0f <= 1-CPU tpm %.0f", three.TPM, one.TPM)
	}
	if three.MeanLatencyMS >= one.MeanLatencyMS {
		t.Fatalf("3-CPU latency %.1f >= 1-CPU latency %.1f",
			three.MeanLatencyMS, one.MeanLatencyMS)
	}
}

func TestReadOnlyLatencyUnaffectedByReplication(t *testing.T) {
	// Section 5.1: the latency of read-only transactions is not affected
	// by replication (local concurrency control, no termination
	// protocol).
	// Equal CPU capacity on both sides (the paper's comparison): one
	// 3-CPU site versus three 1-CPU sites.
	central := run(t, Config{Sites: 1, CPUsPerSite: 3, Clients: 30, TotalTxns: 400, Seed: 8})
	repl := run(t, Config{Sites: 3, CPUsPerSite: 1, Clients: 30, TotalTxns: 400, Seed: 8})
	if central.LatReadOnly.N() == 0 || repl.LatReadOnly.N() == 0 {
		t.Fatal("no read-only samples")
	}
	ratio := repl.LatReadOnly.Mean() / central.LatReadOnly.Mean()
	if ratio > 1.3 {
		t.Fatalf("read-only latency grew %.2fx under replication", ratio)
	}
	// Update transactions pay the termination protocol: every update must
	// have a positive certification latency, and none exist centralized.
	if repl.CertLat.N() == 0 || repl.CertLat.Mean() <= 0 {
		t.Fatalf("no certification cost in replicated run: n=%d mean=%v",
			repl.CertLat.N(), repl.CertLat.Mean())
	}
	if central.CertLat.N() != 0 {
		t.Fatal("centralized run produced certification samples")
	}
}

func TestTxnLogCollection(t *testing.T) {
	r := run(t, Config{Sites: 1, Clients: 20, TotalTxns: 100, Seed: 9, logTxns: true})
	if r.TxnLog.Len() == 0 {
		t.Fatal("transaction log empty")
	}
	for _, rec := range r.TxnLog.Records() {
		if rec.End < rec.Submit {
			t.Fatal("negative latency record")
		}
		if rec.Class == "" {
			t.Fatal("missing class in record")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Sites: -1}); err == nil {
		t.Fatal("negative sites accepted")
	}
	if _, err := New(Config{Sites: 100}); err == nil {
		t.Fatal("absurd site count accepted")
	}
	if _, err := New(Config{Sites: 2, Faults: faults.Config{Crashes: []faults.Crash{{Site: 9, At: sim.Second}}}}); err == nil {
		t.Fatal("crash on unknown site accepted")
	}
	for name, cfg := range map[string]Config{
		"groups":                     {Sites: 3, Groups: -3},
		"clients":                    {Sites: 3, Clients: -30},
		"txns":                       {Sites: 3, TotalTxns: -200},
		"cpusPerSite":                {Sites: 3, CPUsPerSite: -2},
		"aggregateClients":           {Sites: 3, AggregateClients: -1},
		"gcsBufferBytes":             {Sites: 3, GCSBufferBytes: -1},
		"readSetThreshold":           {Sites: 3, ReadSetThreshold: -1},
		"replicationDegree":          {Sites: 3, ReplicationDegree: -1},
		"maxSimTimeNs":               {Sites: 3, MaxSimTime: -sim.Second},
		"admission.MaxActivePerSite": {Sites: 3, Admission: &AdmissionConfig{MaxActivePerSite: -64}},
	} {
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), "negative "+name) {
			t.Errorf("negative %s: err = %v", name, err)
		}
	}
}

// TestValidateReportsFaultErrors: Validate refuses every fault load New
// refuses, with New's error, without building a model: each fault kind's
// checks (unknown site, double crash, recovery order, windows, overlapping
// cuts, the strict-majority rule in one group and in two) have a row.
func TestValidateReportsFaultErrors(t *testing.T) {
	crash := func(site int32, at sim.Time) faults.Crash { return faults.Crash{Site: site, At: at} }
	cut := func(at, heal sim.Time, sites ...int32) faults.Partition {
		return faults.Partition{Sites: sites, At: at, Heal: heal}
	}
	for _, tc := range []struct {
		name   string
		groups int
		f      faults.Config
		want   string
	}{
		{"crash of an unknown site", 0, faults.Config{Crashes: []faults.Crash{crash(4, sim.Second)}},
			"core: crash targets unknown site 4"},
		{"double crash", 0, faults.Config{Crashes: []faults.Crash{crash(3, sim.Second), crash(3, 2*sim.Second)}},
			"core: site 3 crashes twice"},
		{"recovery of an unknown site", 0, faults.Config{Recovers: []faults.Recover{{Site: 0, At: sim.Second}}},
			"core: recovery targets unknown site 0"},
		{"recovery without a crash", 0, faults.Config{Recovers: []faults.Recover{{Site: 2, At: sim.Second}}},
			"core: recovery of site 2 without a crash"},
		{"recovery before its crash", 0, faults.Config{Crashes: []faults.Crash{crash(2, 2*sim.Second)},
			Recovers: []faults.Recover{{Site: 2, At: sim.Second}}},
			"core: site 2 recovers at 1s, not after its crash at 2s"},
		{"recovery twice", 0, faults.Config{Crashes: []faults.Crash{crash(2, sim.Second)},
			Recovers: []faults.Recover{{Site: 2, At: 2 * sim.Second}, {Site: 2, At: 3 * sim.Second}}},
			"core: site 2 recovers twice"},
		{"overlapping cuts", 0, faults.Config{Partitions: []faults.Partition{cut(sim.Second, 5*sim.Second, 3), cut(2*sim.Second, 6*sim.Second, 3)}},
			"core: partitions overlap: cut at 2s starts before the cut at 1s heals"},
		{"a cut of nobody", 0, faults.Config{Partitions: []faults.Partition{cut(sim.Second, 0)}},
			"core: partition isolates no sites"},
		{"a cut that heals before it starts", 0, faults.Config{Partitions: []faults.Partition{cut(2*sim.Second, sim.Second, 3)}},
			"core: partition heals at 1s, not after its start 2s"},
		{"a cut of an unknown site", 0, faults.Config{Partitions: []faults.Partition{cut(sim.Second, 0, 7)}},
			"core: partition targets unknown site 7"},
		{"crashes take a majority", 0, faults.Config{Crashes: []faults.Crash{crash(3, 5*sim.Second), crash(2, 10*sim.Second)}},
			"core: crashes and partitions disable 2 of group 1's 3 sites; a strict majority must survive in every group"},
		{"a crash and a cut take a majority", 0, faults.Config{Crashes: []faults.Crash{crash(1, sim.Second)},
			Partitions: []faults.Partition{cut(2*sim.Second, 0, 2)}},
			"core: crashes and partitions disable 2 of group 1's 3 sites; a strict majority must survive in every group"},
		{"a crash and a cut take group 2's majority", 2, faults.Config{Crashes: []faults.Crash{crash(1, sim.Second), crash(5, sim.Second)},
			Partitions: []faults.Partition{cut(2*sim.Second, 0, 6)}},
			"core: crashes and partitions disable 2 of group 2's 3 sites; a strict majority must survive in every group"},
		{"saturation that ends before it starts", 0, faults.Config{Saturation: faults.Saturation{Factor: 4, At: 2 * sim.Second, Until: sim.Second}},
			"core: saturation ends at 1s, not after its start 2s"},
		{"a slow node that is not there", 0, faults.Config{SlowNodes: []faults.SlowNode{{Site: 9, Factor: 3, At: sim.Second}}},
			"core: slow-node targets unknown site 9"},
		{"a slow node that recovers before it slows", 0, faults.Config{SlowNodes: []faults.SlowNode{{Site: 1, Factor: 3, At: 2 * sim.Second, Until: sim.Second}}},
			"core: slow-node ends at 1s, not after its start 2s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Sites: 3, Groups: tc.groups, Clients: 60, TotalTxns: 100, Faults: tc.f}
			verr := cfg.Validate()
			_, nerr := New(cfg)
			if verr == nil || nerr == nil || verr.Error() != tc.want || nerr.Error() != tc.want {
				t.Fatalf("Validate: %v\nNew:      %v\nwant:     %s", verr, nerr, tc.want)
			}
		})
	}
	// What the checks let through, New arms: one crash, a recovery after
	// it, a cut of the other minority site after the recovery, and an
	// overload window.
	ok := Config{Sites: 3, Clients: 60, TotalTxns: 100, Faults: faults.Config{
		Crashes:    []faults.Crash{crash(3, sim.Second)},
		Recovers:   []faults.Recover{{Site: 3, At: 3 * sim.Second}},
		Partitions: []faults.Partition{cut(5*sim.Second, 6*sim.Second, 3)},
		Saturation: faults.Saturation{Factor: 2, At: sim.Second, Until: 2 * sim.Second},
		SlowNodes:  []faults.SlowNode{{Site: 2, Factor: 3, At: sim.Second, Until: 2 * sim.Second}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate refuses a load New arms: %v", err)
	}
	if _, err := New(ok); err != nil {
		t.Fatalf("New refuses a load Validate passes: %v", err)
	}
}
