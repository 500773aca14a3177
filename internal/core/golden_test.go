package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/golden"
	"repro/internal/sim"
)

// goldenRuns is the fixed matrix whose complete simulated outcome is pinned:
// one row per assembly path (single site, both protocols, degree-k partial
// replication, dedicated sequencer, replication groups, each client placement
// under the aggregate tier) and per fault-arming path (loss + crash + rejoin,
// partition with heal, admission + saturation).
var goldenRuns = []struct {
	name string
	cfg  core.Config
}{
	{"site1", core.Config{Sites: 1, Clients: 50, TotalTxns: 300}},
	{"sites3-conservative", core.Config{Sites: 3, Clients: 90, TotalTxns: 500}},
	{"sites3-optimistic", core.Config{Sites: 3, Clients: 90, TotalTxns: 500, Protocol: core.ProtocolOptimistic}},
	{"degree2of6", core.Config{Sites: 6, ReplicationDegree: 2, Clients: 125, TotalTxns: 500}},
	{"degree2of6-optimistic", core.Config{Sites: 6, ReplicationDegree: 2, Clients: 125, TotalTxns: 400,
		Protocol: core.ProtocolOptimistic}},
	{"dedicated-sequencer", core.Config{Sites: 3, DedicatedSequencer: true, Clients: 90, TotalTxns: 500}},
	{"groups3x3", core.Config{Groups: 3, Sites: 3, Clients: 185, TotalTxns: 500}},
	{"groups3x2-optimistic", core.Config{Groups: 3, Sites: 2, Clients: 120, TotalTxns: 400,
		Protocol: core.ProtocolOptimistic}},
	{"aggregate-roundrobin", core.Config{Sites: 3, Clients: 127, TotalTxns: 400, AggregateClients: 1}},
	{"aggregate-primarysite", core.Config{Sites: 3, ReplicationDegree: 2, Clients: 127, TotalTxns: 400,
		AggregateClients: 1}},
	{"aggregate-grouphomed", core.Config{Groups: 3, Sites: 2, Clients: 127, TotalTxns: 400, AggregateClients: 1}},
	{"loss-crash-rejoin", core.Config{Sites: 3, Clients: 90, TotalTxns: 500, CollectTxnLog: true,
		Faults: faults.Config{
			Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			Crashes:  []faults.Crash{{Site: 3, At: 4 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 12 * sim.Second}},
		}}},
	{"partition-heal", core.Config{Sites: 5, Clients: 100, TotalTxns: 500,
		Faults: faults.Config{
			ClockDriftRate:   0.05,
			SchedLatencyMean: 2 * sim.Millisecond,
			Partitions:       []faults.Partition{{Sites: []int32{4, 5}, At: 5 * sim.Second, Heal: 12 * sim.Second}},
			SlowNodes:        []faults.SlowNode{{Site: 2, Factor: 10, At: 3 * sim.Second, Until: 9 * sim.Second}},
		}}},
	{"groups-crash-partition", core.Config{Groups: 2, Sites: 3, Clients: 120, TotalTxns: 500,
		Faults: faults.Config{
			Loss:       faults.Loss{Kind: faults.LossRandom, Rate: 0.03},
			Crashes:    []faults.Crash{{Site: 1, At: 5 * sim.Second}},
			Partitions: []faults.Partition{{Sites: []int32{6}, At: 6 * sim.Second, Heal: 14 * sim.Second}},
		}}},
	{"admission-saturation", core.Config{Sites: 3, Clients: 300, TotalTxns: 500,
		Admission: &core.AdmissionConfig{MaxActivePerSite: 3, BacklogHigh: 4, BacklogLow: 2,
			Retry: core.DefaultAdmissionConfig().Retry},
		Faults: faults.Config{
			Saturation: faults.Saturation{Factor: 8, At: 1 * sim.Second, Until: 6 * sim.Second},
		}}},
}

// goldenCampaigns are the schedule generators whose seed→schedule map is
// pinned: 200 seeds each, hashed.
var goldenCampaigns = []struct {
	name string
	p    campaign.Params
}{
	{"classic-3", campaign.Params{Sites: 3}},
	{"classic-5", campaign.Params{Sites: 5}},
	{"rejoin", campaign.Params{Sites: 5, Rejoin: true}},
	{"overload", campaign.Params{Sites: 3, Overload: true}},
	{"groups-3", campaign.Params{Sites: 3, Groups: 3}},
}

func goldenRow(t *testing.T, name string, cfg core.Config) string {
	t.Helper()
	cfg.Seed = 20250926
	m, err := core.New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s\n", name)
	fmt.Fprintf(&b, "summary: %s\n", r.Summary())
	fmt.Fprintf(&b, "events: %d issued: %d txnlog: %d\n", r.Events, r.Issued, r.TxnLog.Len())
	feats := r.Features()
	keys := make([]string, 0, len(feats))
	for k := range feats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("features:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, feats[k])
	}
	b.WriteByte('\n')
	for i, s := range m.Sites() {
		sr := r.Sites[i]
		log := "-"
		if s.Replica != nil {
			h := sha256.New()
			var rec [16]byte
			for _, e := range s.Replica.CommitLog().Entries() {
				binary.BigEndian.PutUint64(rec[:8], e.Seq)
				binary.BigEndian.PutUint64(rec[8:], e.TID)
				h.Write(rec[:])
			}
			log = fmt.Sprintf("%d/%x", s.Replica.CommitLog().Len(), h.Sum(nil)[:8])
		}
		fmt.Fprintf(&b, "site %d: group=%d state=%s submitted=%d committed=%d aborted=%d rejected=%d log=%s\n",
			sr.Site, sr.Group, sr.State, sr.Submitted, sr.Committed, sr.Aborted, sr.Rejected, log)
	}
	return b.String()
}

// TestGolden holds the refactor guard rail: every row of testdata/golden.txt
// must reproduce byte for byte. Regenerate with `go test ./internal/core -run
// TestGolden -update` only for an intended output change, and say which rows
// moved and why.
func TestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, g := range goldenRuns {
		got.WriteString(goldenRow(t, g.name, g.cfg))
	}
	for _, c := range goldenCampaigns {
		h := sha256.New()
		for seed := int64(1); seed <= 200; seed++ {
			fmt.Fprintf(h, "%#v\n", campaign.New(seed, c.p))
		}
		fmt.Fprintf(&got, "== campaign %s\nschedules: %x\n", c.name, h.Sum(nil)[:16])
	}
	golden.Check(t, filepath.Join("testdata", "golden.txt"), got.Bytes())
}
