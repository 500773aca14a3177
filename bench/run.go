package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/gcs"
	"repro/internal/recovery"
)

// processStart is as early as user code can read the clock; setup_s counts
// from here.
var processStart = time.Now()

// repStat is what is kept of one replication once its Results are dropped.
type repStat struct {
	Seed   int64
	NewS   float64 // wall of core.New
	RunS   float64 // wall of Model.Run
	Issued int
	// Speed is the machine's speed index around this replication (see
	// speedometer): 1 at reference speed, lower when the box was slow.
	Speed float64
	// Host is what core.New and Model.Run cost the process: the counters are
	// read right around the two calls, so the harness's own bookkeeping
	// between replications is not charged to the simulator.
	Host hostCost
	// Print is the replication's simulated outcome rendered to text:
	// everything sim_fingerprint hashes. Two runs of one seed must produce
	// the same bytes.
	Print string
	// Unclean lists the gate's findings; empty means the replication counts.
	Unclean []string
}

// counters sums what the whole-model runs report, over clean replications.
// The per-layer "M" metrics are ratios of these.
type counters struct {
	reps                                  int
	host                                  hostCost
	totalTxns, issued, committed          int64
	rejected, giveUps, retries, events    int64
	simS, wallS, tpm                      float64 // tpm: sum of per-replication committed/sim-minute
	netBytes, dropped, lockWaits          int64
	cpuTxnUtil, cpuProtoUtil, diskUtil    float64 // sums of per-replication percentages
	mispredict                            float64
	gcs                                   gcs.Stats
	certDecideMS, certFinalMS             float64 // sums of latencies
	certDecideN, certFinalN               int
	rollbacks, preApplied, preApplyWasted int64
	backlogPeak                           int64
	xTxns, xCommitted, xRetries, xVetoes  int64
	recoveries                            int
	recoveryMS, downtimeMS                float64
	transferBytes, deltaApplied           int64
}

// pass is one block of replications of a workload, timed back to back.
type pass struct {
	reps []repStat
	lat  []float64 // committed latencies (sim ms) pooled over clean replications
	ctr  counters
	// kept holds the clean replications' Results when the caller asked for
	// them (the traced pass feeds them to the core.AggregateRuns driver).
	kept []*core.Results
	// last and lastRes are the final replication's model and Results, for the
	// check.Logs driver.
	last    *core.Model
	lastRes *core.Results
	// speeds are the machine-speed samples: one before the first replication
	// and one after each.
	speeds    []speed
	heapEndMB float64
}

// hostCost is a difference of process-wide counters: bytes and objects
// allocated, user+system CPU (GC threads included), the GC's share of that
// CPU, and completed GC cycles.
type hostCost struct {
	AllocBytes, Mallocs uint64
	CPUS, GCCPUS        float64
	GCCycles            uint32
}

func (h *hostCost) add(d hostCost) {
	h.AllocBytes += d.AllocBytes
	h.Mallocs += d.Mallocs
	h.CPUS += d.CPUS
	h.GCCPUS += d.GCCPUS
	h.GCCycles += d.GCCycles
}

// hostSnap is one reading of those counters.
type hostSnap struct {
	mem          runtime.MemStats
	cpuS, gcCPUS float64
}

func snapHost() hostSnap {
	var h hostSnap
	runtime.ReadMemStats(&h.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		h.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		h.gcCPUS = s[0].Value.Float64()
	}
	return h
}

func (h hostSnap) since(b hostSnap) hostCost {
	return hostCost{
		AllocBytes: h.mem.TotalAlloc - b.mem.TotalAlloc,
		Mallocs:    h.mem.Mallocs - b.mem.Mallocs,
		CPUS:       h.cpuS - b.cpuS,
		GCCPUS:     h.gcCPUS - b.gcCPUS,
		GCCycles:   h.mem.NumGC - b.mem.NumGC,
	}
}

// gate is the correctness check every replication passes before it may
// contribute a number: the safety verdict and the must-be-zero counters, then
// the workload's own "mechanism is live" check.
func gate(w *workload, r *core.Results) []string {
	var bad []string
	if r.SafetyErr != nil {
		bad = append(bad, r.SafetyErr.Error())
	}
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"inconsistencies", r.Inconsistencies},
		{"cert drops", r.CertDrops},
		{"gcs parse errors", r.GCS.ParseErrors},
		{"rejoin violations", r.RejoinViolations},
	} {
		if c.n != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", c.name, c.n))
		}
	}
	if err := w.Live(r); err != nil {
		bad = append(bad, err.Error())
	}
	return bad
}

// printOf renders the simulated outcome of a replication. Floats are printed
// as their exact bits so "identical" means identical.
func printOf(r *core.Results) string {
	q := func(p float64) string {
		return strconv.FormatFloat(r.LatCommitted.Quantile(p), 'b', -1, 64)
	}
	return fmt.Sprintf("ev=%d is=%d co=%d ab=%d rj=%d gu=%d du=%d p50=%s p95=%s p99=%s",
		r.Events, r.Issued, r.Committed, r.Aborted, r.Rejected, r.GiveUps, int64(r.Duration),
		q(0.50), q(0.95), q(0.99))
}

// replicate builds and runs one model, timing assembly and run separately.
func replicate(w *workload, seed int64, sp *spanLog, parent int) (*core.Model, *core.Results, repStat, error) {
	cfg := w.Config()
	cfg.Seed = seed
	st := repStat{Seed: seed}
	id := sp.begin("replication", parent)
	defer sp.end(id)

	before := snapHost()
	n := sp.begin("core.New", id)
	t0 := time.Now()
	m, err := core.New(cfg)
	st.NewS = time.Since(t0).Seconds()
	sp.end(n)
	if err != nil {
		return nil, nil, st, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	n = sp.begin("Model.Run", id)
	t0 = time.Now()
	r, err := m.Run()
	st.RunS = time.Since(t0).Seconds()
	sp.end(n)
	if err != nil {
		return nil, nil, st, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
	}
	st.Host = snapHost().since(before)
	st.Issued = r.Issued
	st.Print = printOf(r)
	st.Unclean = gate(w, r)
	return m, r, st, nil
}

// runPass runs reps replications with seeds expr.DeriveSeed(seed, rep), one
// after another on the calling goroutine: the model is single-threaded, and
// the box has two cores, so the load never uses more than one.
func runPass(w *workload, seed int64, reps int, keep bool, sm *speedometer, sp *spanLog, parent int) (*pass, error) {
	p := &pass{speeds: []speed{sm.sample()}}
	total := int64(w.Config().TotalTxns)
	for rep := 0; rep < reps; rep++ {
		m, r, st, err := replicate(w, expr.DeriveSeed(seed, rep), sp, parent)
		if err != nil {
			return nil, err
		}
		p.speeds = append(p.speeds, sm.sample())
		st.Speed = (p.speeds[rep].index() + p.speeds[rep+1].index()) / 2
		p.reps = append(p.reps, st)
		p.last, p.lastRes = m, r
		if len(st.Unclean) > 0 {
			continue
		}
		p.lat = append(p.lat, r.LatCommitted.Values()...)
		p.ctr.add(total, st, m, r)
		if keep {
			// TxnLog points into the model; dropping it lets the model go
			// while the Results stay for the AggregateRuns driver.
			r.TxnLog = nil
			p.kept = append(p.kept, r)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapEndMB = float64(ms.HeapInuse) / (1 << 20)
	return p, nil
}

func (c *counters) add(total int64, st repStat, m *core.Model, r *core.Results) {
	c.reps++
	c.totalTxns += total
	c.issued += int64(r.Issued)
	c.committed += r.Committed
	c.rejected += r.Rejected
	c.giveUps += r.GiveUps
	c.retries += r.Retries
	c.events += r.Events
	c.simS += r.Duration.Seconds()
	c.wallS += st.RunS
	c.host.add(st.Host)
	c.tpm += r.TPM
	c.netBytes += m.Network().TotalBytes()
	txnUtil, up := 0.0, 0
	for i, s := range m.Sites() {
		c.dropped += s.Host.Dropped()
		c.lockWaits += s.Server.Locks().Waits()
		if s.Life.State() == recovery.StateUp {
			txnUtil += r.Sites[i].CPUSimUtilPct
			up++
		}
	}
	c.cpuTxnUtil += ratio(txnUtil, float64(up))
	c.cpuProtoUtil += r.CPURealUtilPct
	c.diskUtil += r.DiskUtilPct
	c.mispredict += r.OptMispredictPct

	g := &c.gcs
	g.Sent += r.GCS.Sent
	g.Retransmits += r.GCS.Retransmits
	g.Nacks += r.GCS.Nacks
	g.AssignAcks += r.GCS.AssignAcks
	g.Gossips += r.GCS.Gossips
	g.Delivered += r.GCS.Delivered
	g.BlockedTime += r.GCS.BlockedTime
	g.UniformStalls += r.GCS.UniformStalls
	g.ViewChanges += r.GCS.ViewChanges
	g.QueuePeakBytes = max(g.QueuePeakBytes, r.GCS.QueuePeakBytes)

	c.certDecideMS += r.CertDecideLat.Mean() * float64(r.CertDecideLat.N())
	c.certDecideN += r.CertDecideLat.N()
	c.certFinalMS += r.CertLat.Mean() * float64(r.CertLat.N())
	c.certFinalN += r.CertLat.N()
	c.rollbacks += r.Rollbacks
	c.preApplied += r.PreApplied
	c.preApplyWasted += r.PreApplyWasted
	c.backlogPeak = max(c.backlogPeak, r.BacklogPeak)
	c.xTxns += r.MultiGroupTxns
	c.xCommitted += r.MultiGroupCommitted
	c.xRetries += r.XRetries
	c.xVetoes += r.XVetoes
	c.recoveries += r.Recoveries
	c.recoveryMS += r.MeanRecoveryMS * float64(r.Recoveries)
	c.downtimeMS += r.MeanDowntimeMS * float64(r.Recoveries)
	c.transferBytes += r.TransferBytes
	c.deltaApplied += r.DeltaApplied
}

// clean lists the replications that passed the gate.
func (p *pass) clean() []repStat {
	var out []repStat
	for _, st := range p.reps {
		if len(st.Unclean) == 0 {
			out = append(out, st)
		}
	}
	return out
}

// txnPerWallS is the headline host number per clean replication: issued
// transactions per wall second of Model.Run, at the reference machine speed.
func (p *pass) txnPerWallS() []float64 {
	var out []float64
	for _, st := range p.clean() {
		out = append(out, float64(st.Issued)/st.RunS/st.Speed)
	}
	return out
}

// rawTxnPerWallS is the same without the speed normalization: what this box
// delivered while the pass ran.
func (p *pass) rawTxnPerWallS() []float64 {
	var out []float64
	for _, st := range p.clean() {
		out = append(out, float64(st.Issued)/st.RunS)
	}
	return out
}

// kernelMedians summarizes the pass's machine-speed samples.
func (p *pass) kernelMedians() speed {
	var alu, load, chase []float64
	for _, v := range p.speeds {
		alu, load, chase = append(alu, v.ALU), append(load, v.Load), append(chase, v.Chase)
	}
	return speed{ALU: median(alu), Load: median(load), Chase: median(chase)}
}

// fingerprint hashes every replication's simulated outcome, clean or not. A
// change that claims to speed up only the simulator must leave it identical
// on every workload.
func (p *pass) fingerprint() string {
	h := fnv.New64a()
	for _, st := range p.reps {
		fmt.Fprintf(h, "%d %s\n", st.Seed, st.Print)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ops counts, in transactions, what the run was budgeted and what it did not
// deliver: every budgeted transaction of a clean replication that did not
// commit (aborted, given up after refusals, lost at a crashed site, never
// issued) and the whole budget of a replication that failed the gate.
func (p *pass) ops(w *workload) (attempted, failed int64) {
	total := int64(w.Config().TotalTxns)
	attempted = total * int64(len(p.reps))
	failed = total*int64(len(p.reps)-p.ctr.reps) + p.ctr.totalTxns - p.ctr.committed
	return attempted, failed
}

// reportUnclean lists on stderr the replications that failed the gate, and
// returns their seeds, so a failing input is recorded rather than averaged
// away.
func (p *pass) reportUnclean(w *workload) []int64 {
	var seeds []int64
	for rep, st := range p.reps {
		if len(st.Unclean) > 0 {
			seeds = append(seeds, st.Seed)
			fmt.Fprintf(os.Stderr, "bench: %s: replication %d (Seed: %d) is not clean: %s\n",
				w.Name, rep, st.Seed, strings.Join(st.Unclean, "; "))
		}
	}
	return seeds
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEndOf computes the eight user-visible numbers of an untraced pass.
// startup is the wall from process start to the end of the warm-up
// replication, the median over this process and its startup probes; like
// every host timing here it is in seconds at the reference machine speed.
//
// sim_abort_pct is the share of issued transactions whose final outcome was
// not a commit: aborted, refused until the client gave up, or lost with a
// crashed site. Without admission control or crashes that is exactly
// aborted/(committed+aborted), the paper's Fig. 5c. The narrower ratio is not
// used because on agg1m_shed it rests on a few dozen aborts per run: between
// seeds it moved 0.34-0.52, a spread as wide as the widest bound the
// benchmark contract allows.
func endToEndOf(p *pass, startup float64) (map[string]float64, error) {
	if p.ctr.reps == 0 {
		return nil, fmt.Errorf("no clean replication to measure")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	setup := startup
	for _, st := range p.reps {
		setup += st.NewS * st.Speed
	}
	sort.Float64s(p.lat)
	c := &p.ctr
	return map[string]float64{
		"txn_per_wall_s":      median(p.txnPerWallS()),
		"alloc_bytes_per_txn": ratio(float64(c.host.AllocBytes), float64(c.issued)),
		"peak_rss_mb":         rss,
		"setup_s":             setup,
		"sim_tpm":             c.tpm / float64(c.reps),
		"sim_commit_p50_ms":   quantileSorted(p.lat, 0.50),
		"sim_commit_p99_ms":   quantileSorted(p.lat, 0.99),
		"sim_abort_pct":       100 * ratio(float64(c.issued-c.committed), float64(c.issued)),
	}, nil
}
