// Command faultsim checks the Section 5.3 safety condition — all operational
// sites commit identical transaction sequences, and a crashed or
// partitioned-minority site's log is a prefix of the survivors' (verified by
// internal/check) — under two kinds of fault load:
//
//   - the fixed dependability matrix: the paper's fault rows (clock drift,
//     scheduling latency, random loss, bursty loss, crashes) plus network
//     partition-and-heal rows, each replicated over several seeds;
//   - randomized campaigns (-campaign N): seeded adversarial schedules from
//     internal/campaign composing every fault type, fanned out across cores
//     by the internal/expr runner, with verdicts aggregated per fault type.
//
// The workload comes from a run file (-config; configs/faultsim.json, or
// configs/smoke.json for CI): matrix rows, campaign schedules and explorer
// candidates replace its seed, faults and protocol per run. A failing
// campaign schedule or explorer find is saved under -corpus as a repro file,
// and -replay-file runs any run file again, or, with -seeds N, over N seeds
// derived from -seed as a failure-rate sweep, writing each run's Results to
// runs.jsonl under -corpus. The process exits non-zero when any run fails its
// verdict: unsafe, or wedged (it never quiesced). Stdout and runs.jsonl are
// pure functions of the flags and the file — nothing on the way to them reads
// the host clock, and the worker count does not change a byte — so
// testdata/*.golden pins stdout.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// options are the parsed command-line flags.
type options struct {
	seeds, parallel, campaign, generations, population int
	seed                                               int64
	config, replayFile, corpus, protocol               string
	explore, list, rejoin, overload, short             bool
}

// parseFlags parses a faultsim command line (without the program name),
// resolves -seeds when it was not given (0 with -replay-file, 2 with -short),
// and refuses, printing why, a run count out of range for its mode.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.StringVar(&o.config, "config", "", "run file holding the workload (configs/faultsim.json, configs/smoke.json, or a repro); required unless -replay-file")
	fs.IntVar(&o.seeds, "seeds", 3, "seeds per fixed-matrix fault type; with -replay-file, sweep the file over N seeds derived from -seed (without it, one run at the file's own seed)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.campaign, "campaign", 0, "run N randomized fault schedules instead of the fixed matrix")
	fs.Int64Var(&o.seed, "seed", 1, "base seed of a campaign, the explorer and a -replay-file -seeds sweep (run i uses a seed derived from it)")
	fs.StringVar(&o.replayFile, "replay-file", "", "run a run file: a repro exits 1 when its violation reproduces, a plain config when its verdict is not clean")
	fs.BoolVar(&o.explore, "explore", false, "run the coverage-guided adversarial explorer instead of the fixed matrix")
	fs.IntVar(&o.generations, "generations", 8, "explorer generations")
	fs.IntVar(&o.population, "population", 16, "explorer schedules per generation")
	fs.StringVar(&o.corpus, "corpus", "corpus", "output directory: the explorer's coverage corpus, a repro of every failing campaign schedule or explorer find, and a -replay-file run's runs.jsonl (each run's seed, verdict kind and Results)")
	fs.BoolVar(&o.list, "list", false, "print the resolved fault matrix or campaign schedule and exit without running")
	fs.BoolVar(&o.rejoin, "rejoin", false, "force every campaign schedule to include a crash-and-rejoin")
	fs.BoolVar(&o.overload, "overload", false, "force every campaign schedule to include saturation and a slow-node gray failure")
	fs.BoolVar(&o.short, "short", false, "smoke mode for CI: 2 matrix seeds (unless -seeds is given) and a 15 s fault horizon")
	fs.StringVar(&o.protocol, "protocol", "both", "termination variant under test: conservative, optimistic, or both")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	switch {
	case given["seeds"]: // an explicit -seeds wins over both defaults below
	case o.replayFile != "":
		o.seeds = 0 // a run file is one fault load: one run, at its own seed
	case o.short:
		o.seeds = 2
	}
	if err := o.checkCounts(); err != nil {
		fmt.Fprintln(fs.Output(), "faultsim:", err)
		return nil, err
	}
	return o, nil
}

// checkCounts refuses a run count out of range for the mode it selects: a
// -replay-file sweep takes -seeds 0 (one run at the file's seed) or more,
// -campaign is not negative, the explorer runs at least one generation of one
// schedule, and the fixed matrix at least one seed per fault type.
func (o *options) checkCounts() error {
	switch {
	case o.replayFile != "":
		if o.seeds < 0 {
			return fmt.Errorf("-seeds %d: a sweep needs a positive count (0 runs the file once, at its own seed)", o.seeds)
		}
	case o.campaign < 0:
		return fmt.Errorf("-campaign %d: a campaign needs a positive number of schedules", o.campaign)
	case o.explore:
		if o.generations < 1 || o.population < 1 {
			return fmt.Errorf("-generations %d -population %d: the explorer needs at least one of each", o.generations, o.population)
		}
	case o.campaign == 0 && o.seeds < 1:
		return fmt.Errorf("-seeds %d: the fixed matrix needs at least one seed per fault type", o.seeds)
	}
	return nil
}

// params are the campaign generator's inputs: with a seed they determine a
// schedule completely. The topology is the workload's.
func (o *options) params(base core.Config) campaign.Params {
	p := campaign.Params{Sites: base.Sites, Groups: base.Groups, Rejoin: o.rejoin, Overload: o.overload}
	if o.short {
		// Shorter runs need faults that land while traffic still flows.
		p.Horizon = 15 * sim.Second
	}
	return p
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command behind main: verdicts go to os.Stdout, errors to
// os.Stderr, and the exit status is returned so the golden test can drive it
// in-process.
func run(args []string) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2 // parseFlags (or the flag package) already printed the error
	}
	var protocols []core.Protocol
	switch o.protocol {
	case "both":
		protocols = core.Protocols()
	case string(core.ProtocolConservative), string(core.ProtocolOptimistic):
		protocols = []core.Protocol{core.Protocol(o.protocol)}
	default:
		fmt.Fprintf(os.Stderr, "faultsim: unknown -protocol %q\n", o.protocol)
		return 2
	}

	if o.replayFile != "" {
		// A run file is self-contained (the whole Config, and for a repro
		// the expected verdict): run it, independent of every other flag.
		return runReplayFile(o.replayFile, o.seeds, o.seed, o.parallel, o.corpus)
	}
	if o.config == "" {
		fmt.Fprintln(os.Stderr, "faultsim: -config is required (or -replay-file)")
		return 2
	}
	file, err := explore.LoadRepro(o.config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	base := file.Config
	// Each run sets its protocol from -protocol; the rest of core's check
	// does not depend on it.
	check := base
	check.Protocol = protocols[0]
	if err := check.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %s: %v\n", o.config, err)
		return 2
	}

	if base.Groups > 1 && o.campaign == 0 && !o.list && !o.explore {
		// The fixed matrix encodes single-group assumptions (rejoin rows,
		// site numbering); group mode runs randomized campaigns only.
		fmt.Fprintln(os.Stderr, "faultsim: a config with groups needs -campaign N (or -list)")
		return 2
	}
	if base.Groups > 1 && o.rejoin {
		fmt.Fprintln(os.Stderr, "faultsim: -rejoin needs one group: crash recovery is out of the group-mode scope")
		return 2
	}
	params := o.params(base)

	if o.list {
		// Debugging aid: show exactly what a seed resolves to — the full
		// schedule of a campaign, or the fixed matrix — without running a
		// single simulation.
		if o.campaign > 0 {
			listSchedules(campaign.Plan(o.seed, o.campaign, params))
		} else {
			listMatrix()
		}
		return 0
	}

	failures := 0
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		// One corpus per protocol: the searches are independent and would
		// otherwise overwrite each other's corpus.json.
		corpus := filepath.Join(o.corpus, string(p))
		switch {
		case o.explore:
			failures += runExplore(cfg, params, o.seed, o.generations, o.population, o.parallel, corpus)
		case o.campaign > 0:
			failures += runCampaign(cfg, campaign.Plan(o.seed, o.campaign, params), o.parallel, corpus)
		default:
			failures += runMatrix(cfg, o.seeds, o.parallel)
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d run(s) were unsafe, wedged or errored\n", failures)
		return 1
	}
	fmt.Printf("\nall runs safe (%v): every operational site committed the same sequence\n", protocols)
	return 0
}

// matrixRow is one named fault load of the fixed matrix.
type matrixRow struct {
	name string
	f    faults.Config
}

// matrix is the fixed dependability matrix: the paper's Section 5.3 fault
// rows plus partition-and-heal rows for the network-split extension.
func matrix() []matrixRow {
	return []matrixRow{
		{"clock-drift 5% (site 2)", faults.Config{ClockDriftRate: 0.05, ClockDriftSites: []int32{2}}},
		{"clock-drift 5% (all sites)", faults.Config{ClockDriftRate: 0.05}},
		{"sched-latency exp(5ms) (all)", faults.Config{SchedLatencyMean: 5 * sim.Millisecond}},
		{"random loss 5%", faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.05}}},
		{"random loss 10%", faults.Config{Loss: faults.Loss{Kind: faults.LossRandom, Rate: 0.10}}},
		{"bursty loss 5% (burst~5)", faults.Config{Loss: faults.Loss{Kind: faults.LossBursty, Rate: 0.05, MeanBurst: 5}}},
		{"crash non-sequencer @20s", faults.Config{Crashes: []faults.Crash{{Site: 3, At: 20 * sim.Second}}}},
		{"crash sequencer @20s", faults.Config{Crashes: []faults.Crash{{Site: 1, At: 20 * sim.Second}}}},
		{"loss 5% + crash @20s", faults.Config{
			Loss:    faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			Crashes: []faults.Crash{{Site: 2, At: 20 * sim.Second}},
		}},
		{"partition site 3 @20s heal @40s", faults.Config{
			Partitions: []faults.Partition{{Sites: []int32{3}, At: 20 * sim.Second, Heal: 40 * sim.Second}},
		}},
		{"partition site 3 @20s (no heal)", faults.Config{
			Partitions: []faults.Partition{{Sites: []int32{3}, At: 20 * sim.Second}},
		}},
		{"crash non-seq @20s rejoin @35s", faults.Config{
			Crashes:  []faults.Crash{{Site: 3, At: 20 * sim.Second}},
			Recovers: []faults.Recover{{Site: 3, At: 35 * sim.Second}},
		}},
		{"crash sequencer @20s rejoin @35s", faults.Config{
			Crashes:  []faults.Crash{{Site: 1, At: 20 * sim.Second}},
			Recovers: []faults.Recover{{Site: 1, At: 35 * sim.Second}},
		}},
		{"loss 5% + crash @20s rejoin @35s", faults.Config{
			Loss:     faults.Loss{Kind: faults.LossRandom, Rate: 0.05},
			Crashes:  []faults.Crash{{Site: 2, At: 20 * sim.Second}},
			Recovers: []faults.Recover{{Site: 2, At: 35 * sim.Second}},
		}},
		{"saturation x2 @15s (sustained)", faults.Config{
			Saturation: faults.Saturation{Factor: 2, At: 15 * sim.Second},
		}},
		{"slow-node x10 non-seq @15s", faults.Config{
			SlowNodes: []faults.SlowNode{{Site: 3, Factor: 10, At: 15 * sim.Second}},
		}},
		{"slow-node x10 sequencer @15s", faults.Config{
			SlowNodes: []faults.SlowNode{{Site: 1, Factor: 10, At: 15 * sim.Second}},
		}},
		{"saturation x2 + slow-node x10", faults.Config{
			Saturation: faults.Saturation{Factor: 2, At: 15 * sim.Second},
			SlowNodes:  []faults.SlowNode{{Site: 3, Factor: 10, At: 15 * sim.Second}},
		}},
		{"duplicate 10% (all)", faults.Config{
			Duplicate: faults.Chaos{Rate: 0.10, At: 5 * sim.Second},
		}},
		{"reorder 10% (all)", faults.Config{
			Reorder: faults.Chaos{Rate: 0.10, At: 5 * sim.Second},
		}},
	}
}

// listMatrix prints the resolved fixed matrix without running it.
func listMatrix() {
	fmt.Println("fixed dependability matrix:")
	for _, row := range matrix() {
		sched := campaign.Schedule{Faults: row.f}
		fmt.Printf("  %s\n%s", row.name, sched.Describe())
	}
}

// listSchedules prints resolved campaign schedules without running them.
func listSchedules(plan []campaign.Schedule) {
	for i, s := range plan {
		fmt.Printf("campaign[%3d] seed=%-20d %s\n%s", i, s.Seed, s.Label(), s.Describe())
	}
}

// runMatrix fans the (row × seed) grid across the pool and prints one
// verdict per run, in deterministic row order.
func runMatrix(base core.Config, seeds, parallel int) int {
	fmt.Printf("\n=== fixed matrix, protocol %s ===\n", base.Protocol)
	rows := matrix()
	var tasks []expr.Task
	for _, row := range rows {
		for s := 0; s < seeds; s++ {
			cfg := base
			cfg.Seed = int64(1000*s + 17)
			cfg.Faults = row.f
			tasks = append(tasks, expr.Task{Label: row.name, Config: cfg, Reps: 1})
		}
	}
	// The aggregate client tier must stay safe under faults too: re-run a
	// loss row and a crash row with the tier forced on (unless the whole
	// matrix already runs aggregated: the config sets aggregateClients).
	if base.AggregateClients == 0 {
		for _, row := range rows {
			if row.name != "random loss 5%" && row.name != "crash non-sequencer @20s" {
				continue
			}
			for s := 0; s < seeds; s++ {
				cfg := base
				cfg.Seed = int64(1000*s + 17)
				cfg.Faults = row.f
				cfg.AggregateClients = 1
				tasks = append(tasks, expr.Task{Label: row.name + " [aggregate]", Config: cfg, Reps: 1})
			}
		}
	}
	points, _ := (&expr.Runner{Workers: parallel}).Run(tasks)
	failures := 0
	for _, pt := range points {
		verdict, detail := verdictOf(pt)
		if verdict != "SAFE" {
			failures++
		}
		fmt.Printf("%-33s seed=%-5d %-6s %s\n", pt.Task.Label, pt.Task.Config.Seed, verdict, detail)
	}
	fmt.Printf("\n%d runs\n", len(points))
	return failures
}

// runCampaign executes randomized schedules through the pool, prints one
// verdict line per schedule, and aggregates verdicts per fault type. A
// failing schedule is saved under corpusDir, and its reproduce: line names
// the file.
func runCampaign(base core.Config, plan []campaign.Schedule, parallel int, corpusDir string) int {
	fmt.Printf("\n=== campaign, protocol %s ===\n", base.Protocol)
	points, _ := (&expr.Runner{Workers: parallel}).Run(campaign.Tasks(plan, base))

	type tally struct{ runs, unsafe int }
	perKind := map[string]*tally{}
	for _, k := range campaign.Kinds() {
		perKind[k] = &tally{}
	}
	failures := 0
	for i, pt := range points {
		sched := plan[i]
		verdict, detail := verdictOf(pt)
		safe := verdict == "SAFE"
		if !safe {
			failures++
		}
		for _, k := range sched.Kinds {
			perKind[k].runs++
			if !safe {
				perKind[k].unsafe++
			}
		}
		fmt.Printf("campaign[%3d] seed=%-20d %-40s %-6s %s\n", i, sched.Seed, sched.Label(), verdict, detail)
		if safe {
			continue
		}
		var res *core.Results
		if pt.Err == nil {
			res = pt.Agg.Runs[0]
		}
		if path := saveRepro(pt.Task.Config, res, corpusDir); path != "" {
			fmt.Printf("  reproduce: faultsim -replay-file %s\n", path)
		}
	}

	fmt.Printf("\nper-fault-type verdicts (%d schedules):\n", len(points))
	fmt.Printf("  %-15s %5s %7s\n", "fault type", "runs", "unsafe")
	for _, k := range campaign.Kinds() {
		t := perKind[k]
		fmt.Printf("  %-15s %5d %7d\n", k, t.runs, t.unsafe)
	}
	return failures
}

// runExplore runs the coverage-guided adversarial explorer: generation zero
// is the plan -campaign would run with the same params (so -rejoin and
// -overload shape it too), later generations mutate the coverage corpus.
// Every violation found is delta-debugged to a locally minimal schedule and
// saved under the corpus directory as a self-contained repro JSON
// (replayable with -replay-file); the coverage corpus itself is saved as
// corpus.json.
func runExplore(base core.Config, params campaign.Params, seed int64, generations, population, parallel int, corpusDir string) int {
	fmt.Printf("\n=== explore, protocol %s ===\n", base.Protocol)
	rep, err := explore.Run(explore.Options{
		Base:        base,
		Params:      params,
		Seed:        seed,
		Generations: generations,
		Population:  population,
		Workers:     parallel,
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: explore:", err)
		return 1
	}
	if path, err := rep.WriteCorpus(corpusDir); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: corpus:", err)
	} else {
		fmt.Printf("explore: %d runs (%d errored), %d coverage buckets, corpus (%d entries) -> %s\n",
			rep.Runs, rep.Errored, rep.Buckets, len(rep.Corpus), path)
	}

	// Minimize and persist the first few distinct violations; each probe
	// is a full run, so the shrink budget is bounded.
	const maxRepros = 3
	for i, f := range rep.Found {
		if i >= maxRepros {
			fmt.Printf("explore: %d further violation(s) not minimized\n", len(rep.Found)-maxRepros)
			break
		}
		fmt.Printf("explore: violation at run %d (seed %d): %v\n", f.Run, f.Seed, f.Results.Verdict())
		min, res, probes := explore.Minimize(base, params, f)
		fmt.Printf("explore: minimized %d -> %d gene(s) in %d probes\n", len(f.Genes), len(min), probes)
		if path := saveRepro(explore.Config(base, params, min, f.Seed), res, corpusDir); path != "" {
			fmt.Printf("explore: repro -> %s (replay: faultsim -replay-file %s)\n", path, path)
		}
	}
	fmt.Println("\nexplore done")
	return len(rep.Found) + rep.Errored
}

// saveRepro writes a failing run under dir as a repro file and returns its
// path, or "" after reporting why it could not.
func saveRepro(cfg core.Config, res *core.Results, dir string) string {
	path, err := explore.ReproOf(cfg, res).Save(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim: repro:", err)
		return ""
	}
	return path
}

// runReplayFile runs a run file as one task on the pool, once at its own seed
// when seeds is 0, else at expr.DeriveSeed(base, 0…seeds-1) with the verdict
// kinds tallied in Wilson 95 % intervals, and writes corpusDir/runs.jsonl. A
// run fails when its verdict is not clean, or, for a repro, when its violation
// reproduces. It exits 1 if a run failed, 0 if none did, and 2 on an error.
func runReplayFile(path string, seeds int, base int64, parallel int, corpusDir string) int {
	r, err := explore.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	if err := r.Config.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: %s: %v\n", path, err)
		return 2
	}
	task := expr.Task{Label: path, Config: r.Config, Reps: max(seeds, 1)}
	c := &task.Config
	seed := fmt.Sprintf("seed=%d", c.Seed)
	if seeds > 0 {
		c.Seed = base
		seed = fmt.Sprintf("seeds=DeriveSeed(%d, 0..%d)", base, seeds-1)
	}
	fmt.Printf("replaying %s: protocol=%s sites=%d groups=%d %s", path, c.Protocol, c.Sites, c.Groups, seed)
	if r.Expect != "" {
		fmt.Printf(" expect=%s", r.Expect)
	}
	fmt.Println()
	// The runner keeps every run until the last ends, and the latency samples,
	// which nothing here reads, are most of a run (0.3 MB at lossy_rejoin's).
	rn := &expr.Runner{Workers: parallel, OnRun: func(_, _ int, _ expr.Task, _ int, res *core.Results, _ error) {
		if res != nil {
			res.LatCommitted, res.LatReadOnly, res.LatUpdate, res.CertLat, res.CertDecideLat = nil, nil, nil, nil, nil
		}
	}}
	points, err := rn.Run([]expr.Task{task})
	if err == nil {
		err = writeRuns(corpusDir, c.Seed, points[0].Agg.Runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	runs := points[0].Agg.Runs
	if seeds == 0 {
		switch kind, v := runs[0].VerdictKind(); {
		case v == nil && r.Expect == "":
			fmt.Println("SAFE")
		case v == nil:
			fmt.Println("did not reproduce: SAFE")
		case r.Expect == "":
			fmt.Printf("%s: %v\n", core.VerdictWord(kind), v)
			return 1
		case !r.Reproduces(kind):
			fmt.Printf("did not reproduce: %v\n", v)
		default:
			fmt.Printf("REPRODUCED: %v\n", v)
			return 1
		}
		return 0
	}

	n := len(runs)
	count := map[string]int{}
	for _, res := range runs {
		kind, _ := res.VerdictKind()
		count[kind]++
	}
	fmt.Printf("  %-17s %5s %8s  %s\n", "verdict kind", "runs", "rate", "Wilson 95%")
	for _, k := range slices.Sorted(maps.Keys(count)) { // "" (clean) first
		lo, hi := metrics.Wilson95(count[k], n)
		fmt.Printf("  %-17s %5d %7.2f%%  [%.2f%%, %.2f%%]\n", cmp.Or(k, "clean"), count[k],
			metrics.Rate(int64(count[k]), int64(n)), lo, hi)
	}
	failed := 0
	for i, res := range runs {
		if kind, v := res.VerdictKind(); r.Reproduces(kind) {
			failed++
			fmt.Printf("  run %4d seed=%-20d %-15s %v\n", i, expr.DeriveSeed(base, i), kind, v)
		}
	}
	fmt.Printf("\n%d of %d run(s) failed\n", failed, n)
	return min(failed, 1) // 1 when any run failed
}

// writeRuns writes dir/runs.jsonl: one json.Marshal line per run, in seed
// order, holding its seed, verdict kind ("" when clean) and Results.
func writeRuns(dir string, base int64, runs []*core.Results) error {
	var b []byte
	for i, res := range runs {
		kind, _ := res.VerdictKind()
		line, err := json.Marshal(struct {
			Seed    int64
			Verdict string
			Results *core.Results
		}{expr.DeriveSeed(base, i), kind, res})
		if err != nil {
			return fmt.Errorf("runs.jsonl: run %d: %w", i, err)
		}
		b = append(append(b, line...), '\n')
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "runs.jsonl"), b, 0o644)
}

// verdictOf classifies one completed grid point.
func verdictOf(pt expr.Point) (string, string) {
	if pt.Err != nil {
		return "ERROR", pt.Err.Error()
	}
	r := pt.Agg.Runs[0]
	if kind, v := r.VerdictKind(); v != nil {
		return core.VerdictWord(kind), v.Error()
	}
	detail := fmt.Sprintf("committed=%d tpm=%.0f viewchanges=%d quorumlosses=%d",
		r.Committed, r.TPM, r.GCS.ViewChanges, r.GCS.QuorumLosses)
	if r.Protocol == core.ProtocolOptimistic {
		detail += fmt.Sprintf(" rollbacks=%d mispred=%.1f%%", r.Rollbacks, r.OptMispredictPct)
	}
	if r.Recoveries > 0 {
		detail += fmt.Sprintf(" recoveries=%d recovery=%.0fms transfer=%.0fKB delta=%d lag=%d",
			r.Recoveries, r.MeanRecoveryMS, float64(r.TransferBytes)/1024,
			r.DeltaApplied, maxRejoinLag(r))
	}
	if r.Rejected > 0 || r.Retries > 0 {
		detail += fmt.Sprintf(" rejected=%d retries=%d backlogpeak=%d queuepeak=%dKB",
			r.Rejected, r.Retries, r.BacklogPeak, r.GCS.QueuePeakBytes/1024)
	}
	if r.Groups > 1 {
		detail += fmt.Sprintf(" multigroup=%.1f%% xretries=%d xhandovers=%d",
			r.MultiGroupPct, r.XRetries, r.XHandovers)
	}
	return "SAFE", detail
}

// maxRejoinLag reports the largest per-site commit lag at rejoin.
func maxRejoinLag(r *core.Results) uint64 {
	var lag uint64
	for _, s := range r.Sites {
		if s.RejoinLag > lag {
			lag = s.RejoinLag
		}
	}
	return lag
}
