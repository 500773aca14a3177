package explore

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/mutants"
	"repro/internal/sim"
)

// The self-test workload, under the short-campaign shape. With
// internal/mutants' non-uniform-sequencer mutant applied (the uniform-delivery
// fix reverted) it has a bug to find: a sequencer cut off inside the narrow
// window between its non-uniform local delivery and the survivors learning
// the assignment — exactly the kind of timing coincidence random campaigning
// almost never draws and coverage-guided mutation homes in on.
func shortBase() core.Config {
	return core.Config{
		Sites: 3, Clients: 60, TotalTxns: 300,
		Protocol:   core.ProtocolConservative,
		MaxSimTime: 20 * sim.Minute,
		Admission:  core.DefaultAdmissionConfig(),
	}
}

func shortParams() campaign.Params { return campaign.Params{Sites: 3, Horizon: 15 * sim.Second} }

const shortSeed = 3

// nonUniform is the mutant the self-tests need: they run only where it is
// applied (mutants.Require).
const nonUniform = "non-uniform-sequencer"

// explored caches one exploration per worker count, shared across tests.
var explored = struct {
	sync.Mutex
	reports map[int]*Report
}{reports: map[int]*Report{}}

func exploreWithWorkers(t *testing.T, workers int) *Report {
	t.Helper()
	explored.Lock()
	defer explored.Unlock()
	if rep := explored.reports[workers]; rep != nil {
		return rep
	}
	rep, err := Run(Options{
		Base:        shortBase(),
		Params:      shortParams(),
		Seed:        shortSeed,
		Generations: 8,
		Population:  16,
		Workers:     workers,
		StopOnFirst: true,
	})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(rep.Found) == 0 {
		t.Fatalf("explorer found no violation in %d runs", rep.Runs)
	}
	if rep.Errored != 0 {
		t.Fatalf("%d of %d candidates did not run: repair let an invalid configuration through", rep.Errored, rep.Runs)
	}
	explored.reports[workers] = rep
	return rep
}

// TestExploreCountsCandidatesThatDidNotRun: a candidate the model refuses is
// counted, not skipped — here every one, since the base names no protocol
// core.New knows.
func TestExploreCountsCandidatesThatDidNotRun(t *testing.T) {
	base := shortBase()
	base.Protocol = "no-such-protocol"
	rep, err := Run(Options{Base: base, Params: shortParams(), Seed: shortSeed, Generations: 2, Population: 4})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Errored != 8 || rep.Runs != 8 || len(rep.Found) != 0 || rep.Buckets != 0 {
		t.Fatalf("errored %d of %d runs, %d found, %d buckets; want 8 of 8, 0, 0", rep.Errored, rep.Runs, len(rep.Found), rep.Buckets)
	}
}

// minimizedRepro shrinks a found violation and packages the minimized
// schedule's own run, the way faultsim -explore saves a repro.
func minimizedRepro(t *testing.T, f *Found) *Repro {
	t.Helper()
	min, _ := Minimize(shortBase(), shortParams(), f.Genes, f.Seed)
	cfg := Config(shortBase(), shortParams(), min, f.Seed)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	r, err := ReproOf(cfg, res)
	if err != nil {
		t.Fatalf("repro: %v", err)
	}
	return r
}

// TestExplorerBeatsRandom is the explorer's mutation self-test: with the
// uniform-delivery fix reverted, the coverage-guided explorer must find the
// violation in at most half the runs random campaigning needs, under the same
// run budget and seeds (generation zero IS the random campaign's schedule
// sequence).
func TestExplorerBeatsRandom(t *testing.T) {
	if !mutants.Require(t, nonUniform) {
		return
	}
	const budget = 100
	// Random baseline: the campaign's schedules in plan order, exactly the
	// runs the explorer's generation zero replays.
	params := shortParams()
	baselineFirst := budget + 1 // not found within the budget
	for i, task := range campaign.Tasks(campaign.Plan(shortSeed, budget, params), shortBase()) {
		res, err := core.Run(task.Config)
		if err != nil {
			t.Fatalf("baseline run %d: %v", i, err)
		}
		if res.Verdict() != nil {
			baselineFirst = i + 1
			break
		}
	}

	rep := exploreWithWorkers(t, 0)
	got := rep.Found[0].Run
	t.Logf("baseline first violation: run %d (of %d budget); explorer: run %d",
		baselineFirst, budget, got)
	if 2*got > baselineFirst {
		t.Fatalf("explorer needed %d runs, more than half the random campaign's %d",
			got, baselineFirst)
	}
}

// TestExploreDeterministicAcrossWorkers pins the search result — the found
// schedule, its seed, the run index, and the minimized repro's exact bytes —
// across worker-pool sizes 1, 4, and 8.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	if !mutants.Require(t, nonUniform) {
		return
	}
	var repro []byte
	var run int
	for _, workers := range []int{1, 4, 8} {
		rep := exploreWithWorkers(t, workers)
		f := rep.Found[0]
		b, err := minimizedRepro(t, f).Marshal()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		if repro == nil {
			repro, run = b, f.Run
			continue
		}
		if f.Run != run {
			t.Errorf("workers=%d: violation at run %d, workers=1 found it at run %d", workers, f.Run, run)
		}
		if !bytes.Equal(b, repro) {
			t.Errorf("workers=%d: repro bytes differ from workers=1:\n%s\n--- vs ---\n%s", workers, b, repro)
		}
	}
}

// TestMinimizeProperties is the shrinker property test: the minimized
// schedule still violates, is small, and is locally minimal — removing any
// single remaining fault makes the violation disappear.
func TestMinimizeProperties(t *testing.T) {
	if !mutants.Require(t, nonUniform) {
		return
	}
	base, params := shortBase(), shortParams()
	f := exploreWithWorkers(t, 0).Found[0]
	min, stats := Minimize(base, params, f.Genes, f.Seed)
	t.Logf("minimized %d -> %d genes in %d probes", stats.From, stats.To, stats.Probes)

	violates := func(genes []Gene) bool {
		res, err := core.Run(Config(base, params, genes, f.Seed))
		return err == nil && res.Verdict() != nil
	}

	if !violates(min) {
		t.Fatalf("minimized schedule no longer violates: %+v", min)
	}
	if len(min) > 4 {
		t.Fatalf("minimized schedule keeps %d faults, want <= 4: %+v", len(min), min)
	}
	for i := range min {
		cand := append(append([]Gene{}, min[:i]...), min[i+1:]...)
		if violates(spaceOf(params).repair(cand)) {
			t.Fatalf("not locally minimal: still violates without gene %d (%+v)", i, min[i])
		}
	}
}

// TestReproReplayRoundTrip saves the minimized repro to disk, loads it back,
// and replays it: the violation must reproduce with its recorded kind, and
// the reload must be byte-stable.
func TestReproReplayRoundTrip(t *testing.T) {
	if !mutants.Require(t, nonUniform) {
		return
	}
	r := minimizedRepro(t, exploreWithWorkers(t, 0).Found[0])

	dir := t.TempDir()
	path, err := r.Save(dir)
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	a, _ := r.Marshal()
	b, _ := loaded.Marshal()
	if !bytes.Equal(a, b) {
		t.Fatalf("repro not byte-stable across save/load:\n%s\n--- vs ---\n%s", a, b)
	}
	reproduced, detail, err := loaded.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reproduced {
		t.Fatalf("saved repro did not reproduce (verdict %q)", detail)
	}
}
