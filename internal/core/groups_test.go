package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func runGroups(t *testing.T, cfg Config) *Results {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func groupCfg(protocol Protocol, seed int64) Config {
	return Config{
		Groups:    3,
		Sites:     2,
		Protocol:  protocol,
		Clients:   60,
		TotalTxns: 1500,
		Seed:      seed,
	}
}

// TestGroupsEndToEnd drives the full partial-replication model: three groups
// of two sites, both protocol variants. The run must commit work, resolve
// multi-group transactions through the cross-group commit round, and pass
// the per-group and cross-group safety checks.
func TestGroupsEndToEnd(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			r := runGroups(t, groupCfg(p, 7))
			if r.SafetyErr != nil {
				t.Fatalf("safety: %v", r.SafetyErr)
			}
			if r.Inconsistencies != 0 {
				t.Fatalf("inconsistencies: %d", r.Inconsistencies)
			}
			if r.CertDrops != 0 || r.GCS.ParseErrors != 0 {
				t.Fatalf("drops: cert=%d parse=%d", r.CertDrops, r.GCS.ParseErrors)
			}
			if r.Committed == 0 {
				t.Fatal("nothing committed")
			}
			if r.MultiGroupTxns == 0 {
				t.Fatal("no cross-group transaction was ever initiated")
			}
			if r.MultiGroupCommitted == 0 {
				t.Fatal("no cross-group transaction committed")
			}
			if r.GCS.RelaysSent == 0 || r.GCS.RelaysRecv == 0 {
				t.Fatalf("cross-group rounds ran but the relay counters did not reach Results: sent=%d recv=%d",
					r.GCS.RelaysSent, r.GCS.RelaysRecv)
			}
			if r.Groups != 3 {
				t.Fatalf("Groups = %d, want 3", r.Groups)
			}
			for _, sr := range r.Sites {
				if sr.Group < 1 || sr.Group > 3 {
					t.Fatalf("site %d reports group %d", sr.Site, sr.Group)
				}
			}
			if !strings.Contains(r.Summary(), "multigroup=") {
				t.Fatalf("summary misses group detail: %s", r.Summary())
			}
		})
	}
}

// TestGroupsDeterminism replays the same seed and demands identical results.
func TestGroupsDeterminism(t *testing.T) {
	a := runGroups(t, groupCfg(ProtocolConservative, 11))
	b := runGroups(t, groupCfg(ProtocolConservative, 11))
	if a.Summary() != b.Summary() {
		t.Fatalf("replay diverged:\n  a: %s\n  b: %s", a.Summary(), b.Summary())
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverged: %d vs %d", a.Events, b.Events)
	}
	if a.MultiGroupCommitted != b.MultiGroupCommitted || a.MultiGroupAborted != b.MultiGroupAborted {
		t.Fatalf("cross-group outcomes diverged: %d/%d vs %d/%d",
			a.MultiGroupCommitted, a.MultiGroupAborted, b.MultiGroupCommitted, b.MultiGroupAborted)
	}
}

// TestGroupsCoordinatorCrash crashes a site mid-run — cross-group rounds it
// coordinated must be taken over by a surviving home-group member, and the
// run must still end safe.
func TestGroupsCoordinatorCrash(t *testing.T) {
	cfg := groupCfg(ProtocolConservative, 13)
	cfg.Sites = 3 // keep the crashed site's group at a working majority
	cfg.Clients = 90
	cfg.Faults.Crashes = []faults.Crash{{Site: 1, At: 2 * sim.Second}}
	r := runGroups(t, cfg)
	if r.SafetyErr != nil {
		t.Fatalf("safety: %v", r.SafetyErr)
	}
	if r.Inconsistencies != 0 {
		t.Fatalf("inconsistencies: %d", r.Inconsistencies)
	}
	if r.MultiGroupCommitted == 0 {
		t.Fatal("no cross-group transaction committed")
	}
}

// TestGroupsValidation exercises the config combinations group mode rejects.
func TestGroupsValidation(t *testing.T) {
	base := func() Config { return groupCfg(ProtocolConservative, 1) }
	cases := map[string]func(*Config){
		"one site per group":   func(c *Config) { c.Sites = 1 },
		"dedicated sequencer":  func(c *Config) { c.DedicatedSequencer = true },
		"replication degree":   func(c *Config) { c.ReplicationDegree = 1 },
		"table-lock upgrade":   func(c *Config) { c.ReadSetThreshold = 10 },
		"crash recovery":       func(c *Config) { c.Faults.Recovers = []faults.Recover{{Site: 1, At: sim.Second}} },
		"too many total sites": func(c *Config) { c.Groups = 12; c.Sites = 3 },
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted, want error", name)
		}
	}
}

// TestGroupsSmallMTUFragmentsPrepares squeezes the MTU until prepares
// no longer fit a single datagram even with their value padding stripped:
// the relay path must fragment them (MsgPrepFrag), remote members must
// reassemble and answer, and every safety check must still pass. This is the
// regression test for the oversize-prepare hole, which used to hand the
// network an unsendable frame.
func TestGroupsSmallMTUFragmentsPrepares(t *testing.T) {
	for _, p := range Protocols() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			// The relay MTU is the LAN's, and each stack derives its
			// stream's chunk bound from the same port.
			cfg := groupCfg(p, 11)
			cfg.lan = simnet.LANConfig{MTU: 96}
			_, r := runModel(t, cfg)
			if r.SafetyErr != nil {
				t.Fatalf("safety: %v", r.SafetyErr)
			}
			if r.Inconsistencies != 0 || r.CertDrops != 0 {
				t.Fatalf("inconsistencies=%d certdrops=%d", r.Inconsistencies, r.CertDrops)
			}
			if r.MultiGroupCommitted == 0 {
				t.Fatal("no cross-group transaction committed")
			}
			if r.XPrepFrags == 0 {
				t.Fatal("no prepare was ever fragmented at a 96-byte MTU")
			}
		})
	}
}
