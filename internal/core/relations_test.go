package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// TestRelations pins changes that must move nothing: each row's base run and
// its patched run mean the same simulation, so they must agree on the event
// count, the duration and the printed summary. A component that is present
// but inactive must draw from no stream another component shares, schedule
// no event and shift no tie.
func TestRelations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		base  Config
		patch func(*Config)
	}{
		{
			// The loss model, the reorder injector and the duplicate
			// injector draw from one per-host stream, so a loss at rate 0
			// that drew anyway would move the packets reordering picks.
			name: "reorder plus loss at rate 0",
			base: Config{Sites: 3, Clients: 90, TotalTxns: 400, Seed: 5,
				Faults: faults.Config{Reorder: faults.Chaos{Rate: 0.3, Delay: 2 * sim.Millisecond, At: sim.Second}}},
			patch: func(c *Config) { c.Faults.Loss = faults.Loss{Kind: faults.LossRandom, Rate: 0} },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.base)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.base
			tc.patch(&cfg)
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Events != b.Events || a.Duration != b.Duration {
				t.Fatalf("run shape moved: events %d → %d, duration %v → %v", a.Events, b.Events, a.Duration, b.Duration)
			}
			if sa, sb := a.Summary(), b.Summary(); sa != sb {
				t.Fatalf("summary moved:\n%s\n→\n%s", sa, sb)
			}
		})
	}
}
