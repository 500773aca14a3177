package faults

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func TestLossModelConstruction(t *testing.T) {
	if (Loss{}).NewModel() != nil {
		t.Fatal("LossNone must build no model")
	}
	for _, k := range []LossKind{LossRandom, LossBursty} {
		if l := (Loss{Kind: k}); l.Active() || l.NewModel() != nil {
			t.Fatalf("kind %d at rate 0 must be inactive and build no model", k)
		}
	}
	m := Loss{Kind: LossRandom, Rate: 0.1}.NewModel()
	if _, ok := m.(*simnet.RandomLoss); !ok {
		t.Fatalf("random loss built %T", m)
	}
	mb := Loss{Kind: LossBursty, Rate: 0.05, MeanBurst: 5}.NewModel()
	bl, ok := mb.(*simnet.BurstyLoss)
	if !ok {
		t.Fatalf("bursty loss built %T", mb)
	}
	if bl.MeanBurst != 50*sim.Millisecond {
		t.Fatalf("burst duration = %v, want 50ms for 5 messages", bl.MeanBurst)
	}
	// Default burst length when unset.
	mb2 := Loss{Kind: LossBursty, Rate: 0.05}.NewModel().(*simnet.BurstyLoss)
	if mb2.MeanBurst != 50*sim.Millisecond {
		t.Fatalf("default burst duration = %v", mb2.MeanBurst)
	}
}

func TestSiteMatching(t *testing.T) {
	c := Config{ClockDriftRate: 0.1, ClockDriftSites: []int32{2, 3}}
	if c.DriftsSite(1) || !c.DriftsSite(2) || !c.DriftsSite(3) {
		t.Fatal("drift site matching wrong")
	}
	// Empty list means all sites.
	all := Config{ClockDriftRate: 0.1}
	if !all.DriftsSite(1) || !all.DriftsSite(7) {
		t.Fatal("empty site list must match all")
	}
	// No drift configured: no site drifts.
	none := Config{}
	if none.DriftsSite(1) {
		t.Fatal("zero rate must not drift")
	}
	lat := Config{SchedLatencyMean: sim.Millisecond, SchedLatencySites: []int32{1}}
	if !lat.DelaysSite(1) || lat.DelaysSite(2) {
		t.Fatal("latency site matching wrong")
	}
}

func TestAny(t *testing.T) {
	if (Config{}).Any() {
		t.Fatal("empty config reports faults")
	}
	if (Config{Loss: Loss{Kind: LossRandom}}).Any() {
		t.Fatal("loss at rate 0 reports faults")
	}
	cases := []Config{
		{ClockDriftRate: 0.01},
		{SchedLatencyMean: sim.Millisecond},
		{Loss: Loss{Kind: LossRandom, Rate: 0.01}},
		{Crashes: []Crash{{Site: 1, At: sim.Second}}},
		{Partitions: []Partition{{Sites: []int32{3}, At: sim.Second, Heal: 2 * sim.Second}}},
	}
	for i, c := range cases {
		if !c.Any() {
			t.Fatalf("case %d should report faults", i)
		}
	}
}

func TestSchedLatencyGen(t *testing.T) {
	c := Config{SchedLatencyMean: 10 * sim.Millisecond}
	gen := c.SchedLatencyGen()
	g := sim.NewRNG(1)
	sum := sim.Time(0)
	const n = 10000
	for i := 0; i < n; i++ {
		d := gen(g)
		if d < 0 {
			t.Fatal("negative latency")
		}
		sum += d
	}
	mean := sum / n
	if mean < 9*sim.Millisecond || mean > 11*sim.Millisecond {
		t.Fatalf("mean latency = %v, want ~10ms", mean)
	}
}
