package campaign

import "testing"

// TestOverloadScheduleShape pins the generator's overload-specific
// invariants over many seeds: forced saturation is the canonical 2x, the
// gray failure is the canonical 10x and may land on any site — including
// the sequencer, the hardest case — and every window is well-formed (Until
// after At when bounded).
func TestOverloadScheduleShape(t *testing.T) {
	p := Params{Sites: 3, Overload: true}
	for _, s := range Plan(31, 200, p) {
		sat := s.Faults.Saturation
		if sat.Factor != 2 {
			t.Fatalf("seed %d: forced saturation factor %.2f, want the canonical 2x", s.Seed, sat.Factor)
		}
		if sat.Until != 0 && sat.Until <= sat.At {
			t.Fatalf("seed %d: saturation until %v not after at %v", s.Seed, sat.Until, sat.At)
		}
		if len(s.Faults.SlowNodes) == 0 {
			t.Fatalf("seed %d: no slow node in overload schedule", s.Seed)
		}
		for _, sn := range s.Faults.SlowNodes {
			if sn.Factor != 10 {
				t.Fatalf("seed %d: slow-node factor %.1f, want the canonical 10x", s.Seed, sn.Factor)
			}
			if int(sn.Site) < 1 || int(sn.Site) > 3 {
				t.Fatalf("seed %d: slow node targets unknown site %d", s.Seed, sn.Site)
			}
			if sn.Until != 0 && sn.Until <= sn.At {
				t.Fatalf("seed %d: slow-node until %v not after at %v", s.Seed, sn.Until, sn.At)
			}
		}
	}
}
