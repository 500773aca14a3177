package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/csrt"
	"repro/internal/db"
	"repro/internal/dbsm"
	"repro/internal/gcs"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ClassResult is one row of an abort-rate table (paper Tables 1 and 2).
type ClassResult struct {
	Name      string
	Submitted int64
	Committed int64
	AbortLock int64
	AbortCert int64
	AbortUser int64
	// Rejected counts admission-control refusals (not aborts: the
	// transaction never executed, and the client was invited to retry).
	Rejected int64
	// AbortRatePct is aborted/completed in percent.
	AbortRatePct float64
	// MeanLatencyMS is the average committed latency.
	MeanLatencyMS float64
}

// SiteResult summarizes one replica.
type SiteResult struct {
	Site dbsm.SiteID
	// Group is the site's replication group (0 under full replication).
	Group int
	// State is the lifecycle state at the end of the run (up, crashed,
	// recovering). Crashed is kept as the terminal-crash shorthand.
	State   string
	Crashed bool
	// Recovered reports the site crashed and completed at least one
	// rejoin; its commit log is then held to full equality again.
	Recovered bool
	// Partitioned reports the site spent part of the run isolated in a
	// partition minority; its log is held to the prefix condition.
	Partitioned bool
	Submitted   int64
	Committed   int64
	Aborted     int64
	// Rejected counts admission-control refusals at this site; BacklogPeak
	// is the deepest termination backlog its replica ever reached.
	Rejected      int64
	BacklogPeak   int64
	CPUUtilPct    float64 // all work
	CPUSimUtilPct float64 // transaction processing
	CPURealUtil   float64 // protocol (real) jobs — Figure 7(c)
	DiskUtilPct   float64 // Figure 6(b)
	RemoteApplied int64
	// Availability metrics of the lifecycle refactor: total time not Up,
	// the share of it spent in the Recovering state, snapshot bytes
	// shipped to this site, the commit-sequence gap to the donor at
	// rejoin, and the deliveries replayed in the delta catch-up.
	DowntimeMS   float64
	RecoveryMS   float64
	TransferKB   float64
	RejoinLag    uint64
	DeltaApplied int64
}

// Results carries everything the paper's evaluation reports for one run.
type Results struct {
	// Protocol echoes the run's termination variant.
	Protocol Protocol
	// Duration is the measurement window (start to last completion).
	Duration sim.Time
	// Issued counts client submissions (including ones swallowed by
	// crashed sites).
	Issued int
	// Submitted/Committed/Aborted aggregate server-side transactions.
	Submitted int64
	Committed int64
	Aborted   int64
	// Stats is the run total of the replicas' termination counters, every
	// site and incarnation folded together — CertDrops (must be zero: a
	// delivered certification payload failed to decode), the optimistic
	// pipeline's Tentative/Rollbacks/Recertified/PreApplied/PreApplyWasted,
	// DeltaApplied, BacklogPeak, and the cross-group round's
	// MultiGroupTxns/XRetries/XHandovers/XVetoes/XPrepFrags — promoted, so
	// r.Rollbacks reads the field replica.Stats declares. Results declares no
	// counter a layer's Stats already carries.
	replica.Stats
	// GCS is the same total over all protocol stacks.
	GCS gcs.Stats
	// Overload counters. Rejected sums explicit admission refusals (server
	// side); Retries and GiveUps sum client resubmissions and abandoned
	// transactions; RetryLat samples first-submit-to-final-outcome latency
	// (ms) of transactions that needed at least one retry.
	Rejected int64
	Retries  int64
	GiveUps  int64
	RetryLat *metrics.Sample
	// TPM is committed transactions per minute — Figure 5(a).
	TPM float64
	// MeanLatencyMS and P95LatencyMS summarize committed latency —
	// Figure 5(b).
	MeanLatencyMS float64
	P95LatencyMS  float64
	// AbortRatePct is the overall abort percentage — Figure 5(c).
	AbortRatePct float64
	// Classes breaks abort rates down per class — Tables 1 and 2.
	Classes []ClassResult
	// Sites summarizes each replica.
	Sites []SiteResult
	// CPUUtilPct / CPURealUtilPct / DiskUtilPct average utilization over
	// live sites — Figures 6(a), 7(c), 6(b).
	CPUUtilPct     float64
	CPURealUtilPct float64
	DiskUtilPct    float64
	// NetKBps is total network traffic — Figure 6(c).
	NetKBps float64
	// LatCommitted/LatReadOnly/LatUpdate/CertLat are latency samples (ms)
	// for distribution plots — Figures 4, 7(a), 7(b).
	LatCommitted *metrics.Sample
	LatReadOnly  *metrics.Sample
	LatUpdate    *metrics.Sample
	CertLat      *metrics.Sample
	// CertDecideLat samples the certification-decision latency: commit
	// request to first verdict. Equals CertLat under the conservative
	// protocol; one ordering round shorter under optimistic delivery —
	// the latency split the protocol comparison reports.
	CertDecideLat    *metrics.Sample
	MeanCertDecideMS float64
	// OptMispredictPct is the stack-level tentative-order misprediction
	// rate: final deliveries whose spontaneous position disagreed with the
	// total order, in percent of tentative deliveries.
	OptMispredictPct float64
	// Recovery metrics, summed over sites: completed rejoins, snapshot
	// bytes shipped, mean recovery duration and downtime per rejoin, and
	// install-time prefix-check failures (RejoinViolations must be zero;
	// RejoinErr carries the first one).
	Recoveries       int
	TransferBytes    int64
	MeanRecoveryMS   float64
	MeanDowntimeMS   float64
	RejoinViolations int64
	RejoinErr        error
	// Partial-replication (group mode) detail. Groups echoes the group
	// count (0 for the classic model). MultiGroupCommitted/MultiGroupAborted
	// count the cross-group rounds' decisions as recorded by the home
	// group's canonical stream; MultiGroupPct is the committed-transaction
	// share that spanned groups.
	Groups              int
	MultiGroupCommitted int64
	MultiGroupAborted   int64
	MultiGroupPct       float64
	// SafetyErr is the off-line commit-sequence comparison verdict
	// (Section 5.3), produced by the internal/check consistency checker;
	// nil means all operational sites committed identical sequences and
	// every crashed or partitioned-minority site's log is a prefix of the
	// survivors'. When non-nil it is a *check.Violation.
	SafetyErr error
	// Inconsistencies must be zero (local abort vs global commit).
	Inconsistencies int64
	// Wedged: the run stopped, at MaxSimTime or out of events, before it
	// quiesced (Model.quiesced), leaving work unfinished.
	Wedged bool
	// TxnLog holds per-transaction records when CollectTxnLog was set.
	TxnLog *trace.TxnLog
	// Events is the number of simulation events dispatched.
	Events int64
}

// results assembles the report after the run.
func (m *Model) results() *Results {
	r := &Results{
		Protocol:      m.cfg.Protocol,
		Issued:        m.issued,
		LatCommitted:  &metrics.Sample{},
		LatReadOnly:   &metrics.Sample{},
		LatUpdate:     &metrics.Sample{},
		CertLat:       &metrics.Sample{},
		CertDecideLat: &metrics.Sample{},
		RetryLat:      &metrics.Sample{},
		TxnLog:        m.txnLog,
		Events:        m.k.Executed(),
	}
	duration := m.lastDone
	if duration <= 0 {
		duration = m.k.Now()
	}
	r.Duration = duration

	classAgg := map[string]*ClassResult{}
	classLat := map[string]*metrics.Sample{}
	liveSites := 0
	now := m.k.Now()
	for _, s := range m.sites {
		sub, com, ab, rej := s.Server.Totals()
		life := s.Life
		sr := SiteResult{
			Site:          s.ID,
			Group:         m.place.reported(s.group),
			State:         life.State().String(),
			Crashed:       life.State() == recovery.StateCrashed,
			Recovered:     life.Recoveries() > 0,
			Partitioned:   s.partitioned,
			Submitted:     sub,
			Committed:     com,
			Aborted:       ab,
			Rejected:      rej,
			RemoteApplied: s.Server.RemoteApplied(),
			DowntimeMS:    life.Downtime(now).Millis(),
			RecoveryMS:    life.RecoveryTime(now).Millis(),
			TransferKB:    float64(life.TransferBytes()) / 1024,
			RejoinLag:     life.RejoinLag(),
		}
		r.Recoveries += life.Recoveries()
		r.TransferBytes += life.TransferBytes()
		if life.Recoveries() > 0 {
			r.MeanRecoveryMS += life.RecoveryTime(now).Millis()
			r.MeanDowntimeMS += life.Downtime(now).Millis()
		}
		if duration > 0 {
			sr.CPUUtilPct = s.CPUs.Utilization(duration)
			sr.CPUSimUtilPct = s.CPUs.ClassUtilization(csrt.ClassSim, duration)
			sr.CPURealUtil = s.CPUs.ClassUtilization(csrt.ClassReal, duration)
			sr.DiskUtilPct = s.Server.Storage().Utilization(duration)
		}
		// Fold the live incarnation's counters on top of any dead
		// incarnations' accumulated at recovery time.
		repStats, gcsStats := s.deadReplica, s.deadGCS
		if s.Replica != nil {
			fold(&repStats, s.Replica.Stats())
		}
		if s.Stack != nil {
			fold(&gcsStats, s.Stack.Stats())
		}
		fold(&r.Stats, repStats)
		fold(&r.GCS, gcsStats)
		sr.DeltaApplied = repStats.DeltaApplied
		sr.BacklogPeak = repStats.BacklogPeak
		r.Sites = append(r.Sites, sr)
		r.Submitted += sub
		r.Committed += com
		r.Aborted += ab
		r.Rejected += rej
		if s.operational() {
			liveSites++
			r.CPUUtilPct += sr.CPUUtilPct
			r.CPURealUtilPct += sr.CPURealUtil
			r.DiskUtilPct += sr.DiskUtilPct
		}
		collectClasses(s, classAgg, classLat)
		r.LatCommitted.Merge(&s.Server.LatCommitted)
		r.LatReadOnly.Merge(&s.Server.LatReadOnly)
		r.LatUpdate.Merge(&s.Server.LatUpdate)
		r.CertLat.Merge(&s.Server.CertLat)
		r.CertDecideLat.Merge(&s.Server.CertDecideLat)
		r.Inconsistencies += s.Server.Inconsistencies()
	}
	for _, c := range m.clients {
		r.Retries += c.Retries()
		r.GiveUps += c.GiveUps()
		r.RetryLat.Merge(c.RetryLat())
	}
	r.RejoinViolations = m.rejoinViolations
	r.RejoinErr = m.rejoinViolation
	if liveSites > 0 {
		r.CPUUtilPct /= float64(liveSites)
		r.CPURealUtilPct /= float64(liveSites)
		r.DiskUtilPct /= float64(liveSites)
	}
	if r.Recoveries > 0 {
		r.MeanRecoveryMS /= float64(r.Recoveries)
		r.MeanDowntimeMS /= float64(r.Recoveries)
	}
	if m.dedicated != nil && m.dedicated.Stack != nil {
		fold(&r.GCS, m.dedicated.Stack.Stats())
	}
	if duration > 0 {
		r.TPM = float64(r.Committed) / (duration.Seconds() / 60)
		r.NetKBps = float64(m.net.TotalBytes()) / 1024 / duration.Seconds()
	}
	r.MeanLatencyMS = r.LatCommitted.Mean()
	r.P95LatencyMS = r.LatCommitted.Quantile(0.95)
	r.MeanCertDecideMS = r.CertDecideLat.Mean()
	r.OptMispredictPct = metrics.Rate(r.GCS.Mispredicted, r.GCS.Optimistic)
	done := r.Committed + r.Aborted
	r.AbortRatePct = metrics.Rate(r.Aborted, done)

	for name, cr := range classAgg {
		cr.AbortRatePct = metrics.Rate(cr.AbortLock+cr.AbortCert+cr.AbortUser,
			cr.Committed+cr.AbortLock+cr.AbortCert+cr.AbortUser)
		cr.MeanLatencyMS = classLat[name].Mean()
	}
	names := make([]string, 0, len(classAgg))
	for n := range classAgg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Classes = append(r.Classes, *classAgg[n])
	}

	// Off-line safety check over commit logs (replicated runs only):
	// crashed sites and partitioned-minority sites are held to the prefix
	// condition, everyone else must agree exactly. The one-copy condition
	// holds per replication group (each group runs its own certified order);
	// with several groups the cross-group conditions — atomic decisions and
	// an acyclic cross-group serialization graph — are checked on top, over
	// one canonical record stream per group.
	r.Groups = m.place.reported(m.place.groups)
	if len(m.sites) > 1 {
		var xlogs []check.GroupXLog
		for g := 1; g <= m.place.groups; g++ {
			lo, hi := m.place.sitesOf(g)
			members := m.sites[lo:hi]
			siteLogs := make([]check.SiteLog, 0, len(members))
			var canonical *Site
			for _, s := range members {
				siteLogs = append(siteLogs, check.SiteLog{
					Site:        s.ID,
					Operational: s.operational(),
					Recovered:   s.Life.Recoveries() > 0,
					Entries:     s.Replica.CommitLog().Entries(),
				})
				if canonical == nil && s.operational() {
					canonical = s
				}
			}
			if v := check.Logs(siteLogs); v != nil && r.SafetyErr == nil {
				v.Group = m.place.reported(g)
				r.SafetyErr = v
			}
			if canonical == nil {
				continue // whole group down: nothing canonical to compare
			}
			records := canonical.Replica.XRecords()
			xlogs = append(xlogs, check.GroupXLog{Group: g, Site: canonical.ID, Records: records})
			for _, rec := range records {
				if rec.HomeGroup != g {
					continue
				}
				if rec.Commit {
					r.MultiGroupCommitted++
				} else {
					r.MultiGroupAborted++
				}
			}
		}
		if m.place.groups > 1 {
			if v := check.CrossGroup(xlogs); v != nil && r.SafetyErr == nil {
				r.SafetyErr = v
			}
		}
		r.MultiGroupPct = metrics.Rate(r.MultiGroupCommitted, r.Committed)
	}
	if len(m.sites) > 1 && r.SafetyErr == nil && r.RejoinErr != nil {
		// An install-time prefix violation is a safety violation even
		// if the final logs happen to line up.
		r.SafetyErr = r.RejoinErr
	}
	return r
}

// Features exports the run's protocol-state fingerprint: every counter that
// marks a rare protocol state, keyed by a stable name. The adversarial
// explorer (internal/explore) buckets these into its coverage map; anything
// else wanting a behavioural signature of a run can use them too. Keys are
// stable across runs and releases — add, don't rename.
func (r *Results) Features() map[string]int64 {
	return map[string]int64{
		// Membership and ordering edges.
		"viewchanges":   r.GCS.ViewChanges,
		"quorumlosses":  r.GCS.QuorumLosses,
		"flushabandons": r.GCS.FlushAbandons,
		"uniformstalls": r.GCS.UniformStalls,
		"joinrequests":  r.GCS.JoinRequests,
		"joins":         r.GCS.Joins,
		"recoveries":    int64(r.Recoveries),
		// Reliable-stream stress.
		"retransmits":    r.GCS.Retransmits,
		"nacks":          r.GCS.Nacks,
		"nackmisses":     r.GCS.NackMisses,
		"assignacks":     r.GCS.AssignAcks,
		"assigndeferred": r.GCS.AssignDeferred,
		// Optimistic-pipeline divergence.
		"mispredicted": r.GCS.Mispredicted,
		"rollbacks":    r.Rollbacks,
		"recertified":  r.Recertified,
		// Cross-group commit round edges.
		"xretries":   r.XRetries,
		"xhandovers": r.XHandovers,
		"xvetoes":    r.XVetoes,
		"xprepfrags": r.XPrepFrags,
		// Overload and recovery load.
		"rejected":     r.Rejected,
		"retries":      r.Retries,
		"giveups":      r.GiveUps,
		"backlogpeak":  r.BacklogPeak,
		"queuepeakkb":  r.GCS.QueuePeakBytes / 1024,
		"deltaapplied": r.DeltaApplied,
	}
}

func collectClasses(s *Site, agg map[string]*ClassResult, lat map[string]*metrics.Sample) {
	s.Server.EachClass(func(name string, cs *db.ClassStats) {
		cr := agg[name]
		if cr == nil {
			cr = &ClassResult{Name: name}
			agg[name] = cr
			lat[name] = &metrics.Sample{}
		}
		cr.Submitted += cs.Submitted
		cr.Committed += cs.Committed
		cr.AbortLock += cs.AbortLock
		cr.AbortCert += cs.AbortCert
		cr.AbortUser += cs.AbortUser
		cr.Rejected += cs.Rejected
		lat[name].Merge(&cs.Lat)
	})
}

// Summary renders a one-line digest.
func (r *Results) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tpm=%.0f latency=%.1fms abort=%.2f%% cpu=%.1f%% disk=%.1f%% net=%.1fKB/s",
		r.TPM, r.MeanLatencyMS, r.AbortRatePct, r.CPUUtilPct, r.DiskUtilPct, r.NetKBps)
	if r.Protocol == ProtocolOptimistic {
		fmt.Fprintf(&b, " certdecide=%.1fms rollbacks=%d", r.MeanCertDecideMS, r.Rollbacks)
	}
	if r.Recoveries > 0 {
		fmt.Fprintf(&b, " recoveries=%d recovery=%.0fms transfer=%.0fKB delta=%d",
			r.Recoveries, r.MeanRecoveryMS, float64(r.TransferBytes)/1024, r.DeltaApplied)
	}
	if r.Groups > 1 {
		fmt.Fprintf(&b, " groups=%d multigroup=%.2f%% (x: %d committed, %d aborted, %d retries, %d handovers)",
			r.Groups, r.MultiGroupPct, r.MultiGroupCommitted, r.MultiGroupAborted, r.XRetries, r.XHandovers)
	}
	if r.Rejected > 0 || r.Retries > 0 {
		fmt.Fprintf(&b, " rejected=%d retries=%d giveups=%d backlogpeak=%d",
			r.Rejected, r.Retries, r.GiveUps, r.BacklogPeak)
	}
	if r.GCS.AssignDeferred > 0 {
		fmt.Fprintf(&b, " assigndeferred=%d queuepeak=%dKB", r.GCS.AssignDeferred, r.GCS.QueuePeakBytes/1024)
	}
	if r.CertDrops > 0 || r.GCS.ParseErrors > 0 {
		fmt.Fprintf(&b, " DROPS(cert=%d parse=%d)", r.CertDrops, r.GCS.ParseErrors)
	}
	if r.SafetyErr != nil {
		fmt.Fprintf(&b, " SAFETY-VIOLATION(%v)", r.SafetyErr)
	}
	return b.String()
}

// Verdict is the one rule for "was this run clean?": nil, or the first
// must-be-zero condition that fired — the safety checker's violation (the
// *check.Violation itself, so callers can triage it), then rejoin prefix
// violations, local/global inconsistencies, dropped certification payloads,
// malformed wire messages, and the liveness leg: a run that never quiesced.
// The drops are not serializability violations, but a payload vanished: a
// marshaling bug every campaign, table and example must fail on.
func (r *Results) Verdict() error {
	_, v := r.VerdictKind()
	return v
}

// VerdictKind is Verdict with the name of the leg that fired: the
// check.Kind's name for a safety violation, then "rejoin-prefix",
// "inconsistency", "cert-drop", "parse-error" and "wedged"; "" when the run
// is clean. Sweeps tally by it and a repro's expect holds it.
func (r *Results) VerdictKind() (string, error) {
	switch {
	case r.SafetyErr != nil:
		v := &check.Violation{} // kind "unknown" unless the error is one
		errors.As(r.SafetyErr, &v)
		return v.Kind.String(), r.SafetyErr
	case r.RejoinViolations != 0:
		return "rejoin-prefix", fmt.Errorf("%d rejoin prefix violations", r.RejoinViolations)
	case r.Inconsistencies != 0:
		return "inconsistency", fmt.Errorf("%d local/global inconsistencies", r.Inconsistencies)
	case r.CertDrops != 0:
		return "cert-drop", fmt.Errorf("%d certification payloads dropped on unmarshal", r.CertDrops)
	case r.GCS.ParseErrors != 0:
		return "parse-error", fmt.Errorf("%d gcs wire messages dropped on parse", r.GCS.ParseErrors)
	case r.Wedged:
		return "wedged", fmt.Errorf("stopped before quiescing: %d of %d issued transactions committed", r.Committed, r.Issued)
	}
	return "", nil
}

// VerdictWord is the word a command prints before a failing verdict of the
// given kind: WEDGED for the liveness leg, UNSAFE for every other leg.
func VerdictWord(kind string) string {
	if kind == "wedged" {
		return "WEDGED"
	}
	return "UNSAFE"
}

// Stat is the mean ± 95% confidence interval of one scalar metric over R
// replicated runs.
type Stat struct {
	Mean float64
	CI95 float64 // half-width of the 95% Student-t confidence interval
	Min  float64
	Max  float64
	N    int
}

// String renders "mean±ci" with one decimal.
func (st Stat) String() string { return fmt.Sprintf("%.1f±%.1f", st.Mean, st.CI95) }

func statOf(vals []float64) Stat {
	var s metrics.Sample
	for _, v := range vals {
		s.Add(v)
	}
	return Stat{Mean: s.Mean(), CI95: s.CI95(), Min: s.Min(), Max: s.Max(), N: s.N()}
}

// ClassAggregate is one row of an abort-rate table aggregated over
// replications.
type ClassAggregate struct {
	Name          string
	AbortRatePct  Stat
	MeanLatencyMS Stat
}

// Aggregate holds R replicated Results of the same configuration (run with
// different seeds). It stores no per-metric column: a table asks Stat for
// the mean ± 95% CI of exactly the quantity it prints, and Pool for a
// latency distribution over all replications. Both walk Runs in replication
// order, so the same runs always produce the identical numbers regardless of
// how the runs themselves were scheduled.
type Aggregate struct {
	Reps int
	// Classes aggregates abort-rate rows — Tables 1 and 2.
	Classes []ClassAggregate
	// Runs holds the underlying per-replication results, in order.
	Runs []*Results
}

// AggregateRuns merges replicated results. It panics on an empty slice —
// every grid point runs at least one replication.
func AggregateRuns(runs []*Results) *Aggregate {
	if len(runs) == 0 {
		panic("core: AggregateRuns on empty run set")
	}
	a := &Aggregate{Reps: len(runs), Runs: runs}

	// Class rows: union of class names in sorted order; a replication that
	// never saw a class contributes a zero observation, keeping every
	// column the same width.
	nameSet := map[string]bool{}
	for _, r := range runs {
		for _, c := range r.Classes {
			nameSet[c.Name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for n := range nameSet {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		abort := make([]float64, len(runs))
		lat := make([]float64, len(runs))
		for i, r := range runs {
			for _, c := range r.Classes {
				if c.Name == name {
					abort[i] = c.AbortRatePct
					lat[i] = c.MeanLatencyMS
					break
				}
			}
		}
		a.Classes = append(a.Classes, ClassAggregate{
			Name:          name,
			AbortRatePct:  statOf(abort),
			MeanLatencyMS: statOf(lat),
		})
	}
	return a
}

// Stat summarizes one scalar of every replication, e.g.
// a.Stat(func(r *Results) float64 { return float64(r.GCS.Nacks) }).
func (a *Aggregate) Stat(get func(*Results) float64) Stat {
	vals := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		vals[i] = get(r)
	}
	return statOf(vals)
}

// Pool concatenates one latency sample of every replication — the
// distribution plots of Figures 4 and 7.
func (a *Aggregate) Pool(get func(*Results) *metrics.Sample) *metrics.Sample {
	pooled := &metrics.Sample{}
	for _, r := range a.Runs {
		pooled.Merge(get(r))
	}
	return pooled
}

// Class returns the aggregated row for a class name, or nil.
func (a *Aggregate) Class(name string) *ClassAggregate {
	for i := range a.Classes {
		if a.Classes[i].Name == name {
			return &a.Classes[i]
		}
	}
	return nil
}

// Verdict is the first replication's Results.Verdict that is not nil: the
// point is clean only when every replication was.
func (a *Aggregate) Verdict() error {
	for _, r := range a.Runs {
		if v := r.Verdict(); v != nil {
			return v
		}
	}
	return nil
}
