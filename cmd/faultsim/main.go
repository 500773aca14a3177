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
// Every campaign schedule is reproducible from its printed seed via -replay.
// The process exits non-zero when any run violates safety. Stdout is a pure
// function of the flags — nothing on the way to it reads the host clock, and
// the worker count does not change a byte — so testdata/*.golden pins it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/expr"
	"repro/internal/faults"
	"repro/internal/sim"
)

// options are the parsed command-line flags.
type options struct {
	seeds, txns, clients, aggregate, sites, groups int
	parallel, campaign, generations, population    int
	seed, replay                                   int64
	replayFile, corpus, protocol                   string
	explore, list, rejoin, overload, short         bool
}

// parseFlags parses a faultsim command line (without the program name) and
// applies -short, so everything derived from the result — the base
// configuration, the campaign parameters, the reproduce hint — sees the
// values the run actually uses.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.IntVar(&o.seeds, "seeds", 3, "seeds per fixed-matrix fault type")
	fs.IntVar(&o.txns, "txns", 2000, "transactions per run")
	fs.IntVar(&o.clients, "clients", 300, "clients per run")
	fs.IntVar(&o.aggregate, "aggregate", 0, "AggregateClients threshold: at or above it the aggregate client tier replaces individual clients (0 = always individual)")
	fs.IntVar(&o.sites, "sites", 3, "replica count (per group when -groups > 1)")
	fs.IntVar(&o.groups, "groups", 1, "replication groups (partial replication); campaign mode only")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.campaign, "campaign", 0, "run N randomized fault schedules instead of the fixed matrix")
	fs.Int64Var(&o.seed, "seed", 1, "campaign base seed (schedule i uses a seed derived from it)")
	fs.Int64Var(&o.replay, "replay", 0, "re-run the single campaign schedule with this seed")
	fs.StringVar(&o.replayFile, "replay-file", "", "replay a saved repro JSON file; exits non-zero when its violation reproduces")
	fs.BoolVar(&o.explore, "explore", false, "run the coverage-guided adversarial explorer instead of the fixed matrix")
	fs.IntVar(&o.generations, "generations", 8, "explorer generations")
	fs.IntVar(&o.population, "population", 16, "explorer schedules per generation")
	fs.StringVar(&o.corpus, "corpus", "corpus", "explorer output directory (coverage corpus + minimized repros)")
	fs.BoolVar(&o.list, "list", false, "print the resolved fault matrix or campaign schedule and exit without running")
	fs.BoolVar(&o.rejoin, "rejoin", false, "force every campaign schedule to include a crash-and-rejoin")
	fs.BoolVar(&o.overload, "overload", false, "force every campaign schedule to include saturation and a slow-node gray failure")
	fs.BoolVar(&o.short, "short", false, "smoke mode for CI: small transaction counts, clients, and seeds")
	fs.StringVar(&o.protocol, "protocol", "both", "termination variant under test: conservative, optimistic, or both")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.short {
		o.txns, o.clients, o.seeds = 300, 60, 2
	}
	return o, nil
}

// base is the workload every run shares; the protocol is set per pass.
func (o *options) base() core.Config {
	return core.Config{
		Sites:            o.sites,
		Groups:           o.groups,
		Clients:          o.clients,
		TotalTxns:        o.txns,
		AggregateClients: o.aggregate,
		MaxSimTime:       20 * sim.Minute,
		// Overload protection on: saturation and slow-node rows must
		// degrade gracefully (bounded queues, explicit rejections) rather
		// than thrash, and every other row must stay safe with the
		// admission machinery in the loop.
		Admission: core.DefaultAdmissionConfig(),
	}
}

// params are the campaign generator's inputs: with a seed they determine a
// schedule completely.
func (o *options) params() campaign.Params {
	p := campaign.Params{Sites: o.sites, Groups: o.groups, Rejoin: o.rejoin, Overload: o.overload}
	if o.short {
		// Shorter runs need faults that land while traffic still flows.
		p.Horizon = 15 * sim.Second
	}
	return p
}

// reproHint is the command line that re-runs one campaign schedule under
// protocol p (the caller appends -replay <seed>). It carries every flag that
// reaches base() or params() — parsing it back yields the same workload and
// the same generator inputs, so the seed regenerates the same schedule.
func (o *options) reproHint(p core.Protocol) string {
	hint := fmt.Sprintf("faultsim -sites %d -clients %d -txns %d", o.sites, o.clients, o.txns)
	if o.short {
		hint = fmt.Sprintf("faultsim -short -sites %d", o.sites)
	}
	if o.groups > 1 {
		hint += fmt.Sprintf(" -groups %d", o.groups)
	}
	if o.aggregate != 0 {
		hint += fmt.Sprintf(" -aggregate %d", o.aggregate)
	}
	if o.rejoin {
		hint += " -rejoin"
	}
	if o.overload {
		hint += " -overload"
	}
	return hint + " -protocol " + string(p)
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
		return 2 // the flag package already printed the error and usage
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
		// A saved repro is self-contained (the whole Config, expected
		// verdict): replay it and fail when the violation is still there,
		// independent of every other flag.
		return runReplayFile(o.replayFile)
	}

	if o.groups > 1 && o.campaign == 0 && o.replay == 0 && !o.list && !o.explore {
		// The fixed matrix encodes single-group assumptions (rejoin rows,
		// site numbering); group mode runs randomized campaigns only.
		fmt.Fprintln(os.Stderr, "faultsim: -groups needs -campaign N (or -replay/-list)")
		return 2
	}
	if o.groups > 1 && o.rejoin {
		fmt.Fprintln(os.Stderr, "faultsim: -rejoin needs one group: crash recovery is out of the group-mode scope")
		return 2
	}
	base, params := o.base(), o.params()

	if o.list {
		// Replay debugging aid: show exactly what a seed resolves to —
		// the full schedule of a campaign, or the fixed matrix — without
		// running a single simulation.
		switch {
		case o.replay != 0:
			listSchedules([]campaign.Schedule{campaign.New(o.replay, params)})
		case o.campaign > 0:
			listSchedules(campaign.Plan(o.seed, o.campaign, params))
		default:
			listMatrix()
		}
		return 0
	}

	failures := 0
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		switch {
		case o.explore:
			failures += runExplore(cfg, params, o.seed, o.generations, o.population, o.parallel, o.corpus)
		case o.replay != 0:
			failures += runCampaign(cfg, []campaign.Schedule{campaign.New(o.replay, params)}, o.parallel, o.reproHint(p), true)
		case o.campaign > 0:
			failures += runCampaign(cfg, campaign.Plan(o.seed, o.campaign, params), o.parallel, o.reproHint(p), false)
		default:
			failures += runMatrix(cfg, o.seeds, o.parallel)
		}
	}
	if failures > 0 {
		fmt.Printf("\n%d run(s) violated safety or errored\n", failures)
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
			Duplicate: faults.Duplicate{Rate: 0.10, At: 5 * sim.Second},
		}},
		{"reorder 10% (all)", faults.Config{
			Reorder: faults.Reorder{Rate: 0.10, At: 5 * sim.Second},
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
	// matrix already runs aggregated via -aggregate).
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
// verdict line per schedule, and aggregates verdicts per fault type.
func runCampaign(base core.Config, plan []campaign.Schedule, parallel int, repro string, verbose bool) int {
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
		if verbose {
			fmt.Printf("  faults: %+v\n", sched.Faults)
		}
		if !safe {
			fmt.Printf("  reproduce: %s -replay %d\n", repro, sched.Seed)
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
// replays the random campaign's schedules, later generations mutate the
// coverage corpus. Every violation found is delta-debugged to a locally
// minimal schedule and saved under the corpus directory as a self-contained
// repro JSON (replayable with -replay-file); the coverage corpus itself is
// saved as corpus.json.
func runExplore(base core.Config, params campaign.Params, seed int64, generations, population, parallel int, corpusDir string) int {
	fmt.Printf("\n=== explore, protocol %s ===\n", base.Protocol)
	// One corpus per protocol: the searches are independent and would
	// otherwise overwrite each other's corpus.json.
	corpusDir = filepath.Join(corpusDir, string(base.Protocol))
	space := explore.Space{
		Sites:   params.Sites,
		Groups:  params.Groups,
		Horizon: params.Horizon,
		Rejoin:  params.Rejoin,
	}
	rep, err := explore.Run(explore.Options{
		Base:        base,
		Space:       space,
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
		fmt.Printf("explore: violation at run %d (seed %d): %s\n", f.Run, f.Seed, f.Detail)
		min, stats := explore.Minimize(base, space, f.Genes, f.Seed)
		fmt.Printf("explore: minimized %d -> %d gene(s) in %d probes\n", stats.From, stats.To, stats.Probes)
		res, err := explore.Rerun(base, space, min, f.Seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsim: rerun:", err)
			res = f.Results
		}
		r, err := explore.NewRepro(base, space, min, f.Seed, res)
		var path string
		if err == nil {
			path, err = r.Save(corpusDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultsim: repro:", err)
			continue
		}
		fmt.Printf("explore: repro -> %s (replay: faultsim -replay-file %s)\n", path, path)
	}
	fmt.Println("\nexplore done")
	return len(rep.Found) + rep.Errored
}

// runReplayFile replays a saved repro and reports whether its violation is
// still present: 1 (with the triage annotation) when it reproduces, 0 when
// the tree no longer exhibits it, 2 on file or config errors.
func runReplayFile(path string) int {
	r, err := explore.LoadRepro(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	fmt.Printf("replaying %s: protocol=%s sites=%d groups=%d seed=%d expect=%s/%s\n",
		path, r.Config.Protocol, r.Config.Sites, r.Config.Groups, r.Config.Seed, r.Expect.Verdict, r.Expect.Kind)
	reproduced, detail, err := r.Replay()
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		return 2
	}
	if !reproduced {
		fmt.Printf("did not reproduce: %s\n", detail)
		return 0
	}
	fmt.Printf("REPRODUCED: %s\n", detail)
	if t := r.Triage; t != nil {
		fmt.Printf("triage: kind=%s site=%d ref=%d group=%d pos=%d detail=%q\n",
			t.Kind, t.Site, t.Ref, t.Group, t.Pos, t.Detail)
	}
	return 1
}

// verdictOf classifies one completed grid point.
func verdictOf(pt expr.Point) (string, string) {
	if pt.Err != nil {
		return "ERROR", pt.Err.Error()
	}
	r := pt.Agg.Runs[0]
	if v := r.Verdict(); v != nil {
		return "UNSAFE", v.Error()
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
