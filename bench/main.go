// Command bench is the repository's benchmark: five fixed workloads of the
// whole simulator, eight end-to-end metrics, and a per-layer ledger measured
// from outside the packages it charges. See README.md beside this file.
//
//	bench -workload <name> -seed <S> -seconds <n> -trace <0|1>
//	bench all     [-seed S] [-seconds n]
//	bench repeat  [-seed S] [-seconds n]
//
// One invocation with -workload runs one workload in this process on one
// goroutine and prints, as the last line of standard output, the result
// object BENCHMARK.json's driver reads; the line before it carries the
// detail (quartiles, sim_fingerprint, transaction-level failure counts) that
// `all` and `repeat` tabulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
)

func main() {
	args := os.Args[1:]
	sub := ""
	if len(args) > 0 && (args[0] == "all" || args[0] == "repeat") {
		sub, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: one of "+workloadNames())
	seed := fs.Int64("seed", 1, "base seed; replication seeds are expr.DeriveSeed(seed, rep)")
	seconds := fs.Int("seconds", nominalSeconds, "run length the replication count is scaled to")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	probe := fs.Bool("startup-probe", false, "run only up to the end of the warm-up replication and print the seconds since process start at reference machine speed (what a run's startup probes are)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1")
	case sub == "all":
		err = runAll(*seed, *seconds)
	case sub == "repeat":
		err = runRepeat(*seed, *seconds)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0, *probe)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.Name
	}
	return s
}

// detail is the line before the result: what the result object has no key
// for.
type detail struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       bool    `json:"trace"`
	Reps        int     `json:"replications"`
	Unclean     []int64 `json:"unclean_seeds"`
	Fingerprint string  `json:"sim_fingerprint"`
	// OpsAttempted and OpsFailed are in transactions: every budgeted
	// transaction, and those that did not commit (see pass.ops).
	OpsAttempted int64 `json:"ops_attempted"`
	OpsFailed    int64 `json:"ops_failed"`
	// TxnPerWallS spreads the headline host number over the replications,
	// RawTxnPerWallS the same before normalizing by SpeedIndex, the machine's
	// speed around each replication (Kernels: the three calibration kernels'
	// median rates in Mops). A reader tells machine drift from change by them.
	// StartupS are the startup samples setup_s takes its median from, at
	// reference machine speed. LatencyN is the size of the pool the latency
	// quantiles come from.
	TxnPerWallS    summary   `json:"txn_per_wall_s"`
	RawTxnPerWallS summary   `json:"raw_txn_per_wall_s"`
	SpeedIndex     summary   `json:"speed_index"`
	Kernels        speed     `json:"kernel_mops"`
	StartupS       []float64 `json:"startup_s"`
	LatencyN       int       `json:"sim_commit_latency_n"`
}

// startupProbes is how many fresh processes repeat a run's startup (process
// start to the end of the warm-up replication, calibration table included,
// in seconds at the reference machine speed) beside the run's own, so that
// setup_s rests on a median of five and not on one sample of a second's work.
const startupProbes = 4

// probeStartup runs this binary up to the end of its warm-up replication in a
// fresh process and returns the seconds that took.
func probeStartup(w *workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-startup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("startup probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// runOne measures one workload and prints detail and result.
func runOne(name string, seed int64, seconds int, traced, probe bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if traced {
		// Nothing before the profiled block is sampled.
		runtime.MemProfileRate = 0
	}
	d := detail{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced}
	sm := newSpeedometer()

	// Untimed warm-up: page in the binary, grow the heap, fill the pools. It
	// uses replication 0's seed, so the first timed replication re-runs it and
	// must reproduce it exactly: the determinism self-check.
	before := sm.sample()
	_, _, warm, err := replicate(w, expr.DeriveSeed(seed, 0), nil, 0)
	if err != nil {
		return err
	}
	startup := time.Since(processStart).Seconds()
	startup *= (before.index() + sm.sample().index()) / 2
	if probe {
		fmt.Println(startup)
		return nil
	}

	var defs []metricDef
	var got map[string]float64
	var p *pass
	if !traced {
		defs = endToEnd
		d.Reps = repsFor(w.Reps, seconds)
		d.StartupS = []float64{startup}
		for i := 0; i < startupProbes; i++ {
			s, err := probeStartup(w, seed)
			if err != nil {
				return err
			}
			d.StartupS = append(d.StartupS, s)
		}
		if p, err = runPass(w, seed, d.Reps, false, sm, nil, 0); err != nil {
			return err
		}
		if got, err = endToEndOf(p, median(d.StartupS)); err != nil {
			return err
		}
	} else {
		defs = perLayer
		d.Reps = repsFor(tracedReps(w), seconds)
		if p, got, err = tracedPass(w, seed, d.Reps, 1, sm, traceDir); err != nil {
			return err
		}
	}

	d.Fingerprint = p.fingerprint()
	d.OpsAttempted, d.OpsFailed = p.ops(w)
	d.TxnPerWallS = summarize(p.txnPerWallS())
	d.RawTxnPerWallS = summarize(p.rawTxnPerWallS())
	var idx []float64
	for _, st := range p.reps {
		idx = append(idx, st.Speed)
	}
	d.SpeedIndex, d.Kernels = summarize(idx), p.kernelMedians()
	d.LatencyN = len(p.lat)
	d.Unclean = p.reportUnclean(w)
	if len(d.Unclean) == len(p.reps) {
		return fmt.Errorf("%s: every replication failed the correctness gate", w.Name)
	}
	// correct is the verdict on the simulator itself: the same seed gave the
	// same run, and every metric could be computed. Replications whose
	// simulated protocol run was not clean are the failed operations.
	correct := true
	if p.reps[0].Print != warm.Print {
		correct = false
		fmt.Fprintf(os.Stderr, "bench: %s: seed %d did not reproduce:\n  warm-up: %s\n  re-run:  %s\n",
			w.Name, warm.Seed, warm.Print, p.reps[0].Print)
	}
	packed, err := pack(defs, got)
	if err != nil {
		return err
	}
	res := result{Correct: correct, Attempted: len(p.reps), Failed: len(d.Unclean), Metrics: packed}
	for _, v := range []any{d, res} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// tracedPass is the separate process that fills the ledger: an untraced
// reference block (model counters, host costs, and the Results the drivers
// work on), the same replications again under the profiler, then the D
// drivers, each a span. It is never the source of end-to-end numbers.
func tracedPass(w *workload, seed int64, reps, shrink int, sm *speedometer, outDir string) (*pass, map[string]float64, error) {
	sp := &spanLog{}
	root := sp.begin(w.Name, 0)
	blk := sp.begin("untraced", root)
	plain, err := runPass(w, seed, reps, true, sm, sp, blk)
	sp.end(blk)
	if err != nil {
		return nil, nil, err
	}
	if plain.ctr.reps == 0 {
		plain.reportUnclean(w)
		return nil, nil, fmt.Errorf("%s: no clean replication to measure", w.Name)
	}
	got := modelMetrics(plain)
	for k, v := range hostMetrics(plain) {
		got[k] = v
	}

	var under *pass
	blk = sp.begin("profiled", root)
	cpuProf, allocProf, err := profiled(func() (err error) {
		under, err = runPass(w, seed, reps, false, sm, sp, blk)
		return err
	})
	sp.end(blk)
	if err != nil {
		return nil, nil, err
	}
	cpu, err := cpuProf.shares("cpu")
	if err != nil {
		return nil, nil, err
	}
	alloc, err := allocProf.shares("alloc_space")
	if err != nil {
		return nil, nil, err
	}
	for _, l := range layers {
		got[l+".cpu_share_pct"] = cpu[l]
		got[l+".alloc_share_pct"] = alloc[l]
	}
	base := median(plain.txnPerWallS())
	got["host.trace_overhead_pct"] = 100 * ratio(base-median(under.txnPerWallS()), base)

	dc := newDriverCtx(w, seed, plain, shrink)
	for _, drv := range drivers {
		id := sp.begin("driver:"+drv.Name, root)
		m, err := drv.Run(dc)
		sp.end(id)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range m {
			got[k] = v
		}
	}
	sp.end(root)

	packed, err := pack(perLayer, got)
	if err != nil {
		return nil, nil, err
	}
	tf := traceFile{Workload: w.Name, Seed: seed, Reps: reps, Metrics: packed, Spans: sp.spans}
	return plain, got, tf.write(outDir)
}
