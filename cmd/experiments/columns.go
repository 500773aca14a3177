package main

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// The scalar columns the tables print, as getters for core.Aggregate.Stat: a
// new column is one more line here (or a closure at the table), never an
// edit to core.
func tpm(r *core.Results) float64           { return r.TPM }
func committed(r *core.Results) float64     { return float64(r.Committed) }
func meanLatMS(r *core.Results) float64     { return r.MeanLatencyMS }
func p95LatMS(r *core.Results) float64      { return r.P95LatencyMS }
func abortPct(r *core.Results) float64      { return r.AbortRatePct }
func cpuPct(r *core.Results) float64        { return r.CPUUtilPct }
func cpuRealPct(r *core.Results) float64    { return r.CPURealUtilPct }
func diskPct(r *core.Results) float64       { return r.DiskUtilPct }
func netKBps(r *core.Results) float64       { return r.NetKBps }
func retransmits(r *core.Results) float64   { return float64(r.GCS.Retransmits) }
func nacks(r *core.Results) float64         { return float64(r.GCS.Nacks) }
func blocked(r *core.Results) float64       { return float64(r.GCS.Blocked) }
func blockedMS(r *core.Results) float64     { return r.GCS.BlockedTime.Seconds() * 1e3 }
func queuePeakKB(r *core.Results) float64   { return float64(r.GCS.QueuePeakBytes) / 1024 }
func rejected(r *core.Results) float64      { return float64(r.Rejected) }
func retries(r *core.Results) float64       { return float64(r.Retries) }
func backlogPeak(r *core.Results) float64   { return float64(r.BacklogPeak) }
func certDecideMS(r *core.Results) float64  { return r.MeanCertDecideMS }
func mispredPct(r *core.Results) float64    { return r.OptMispredictPct }
func rollbacks(r *core.Results) float64     { return float64(r.Rollbacks) }
func recertified(r *core.Results) float64   { return float64(r.Recertified) }
func downtimeMS(r *core.Results) float64    { return r.MeanDowntimeMS }
func recoveryMS(r *core.Results) float64    { return r.MeanRecoveryMS }
func transferKB(r *core.Results) float64    { return float64(r.TransferBytes) / 1024 }
func deltaApplied(r *core.Results) float64  { return float64(r.DeltaApplied) }
func multiGroupPct(r *core.Results) float64 { return r.MultiGroupPct }

// The latency samples the distribution plots pool, for core.Aggregate.Pool.
func latCommitted(r *core.Results) *metrics.Sample { return r.LatCommitted }
func latReadOnly(r *core.Results) *metrics.Sample  { return r.LatReadOnly }
func latUpdate(r *core.Results) *metrics.Sample    { return r.LatUpdate }
func certLat(r *core.Results) *metrics.Sample      { return r.CertLat }
