package main

// modelMetrics turns the summed whole-model counters of a pass into the
// per-layer "M" numbers. All but the three wall-clock ratios are exact for a
// seed. A layer that did no work on a workload reports 0.
func modelMetrics(p *pass) map[string]float64 {
	c := &p.ctr
	reps := float64(c.reps)
	issued := float64(c.issued)
	ktxn := issued / 1000
	kdeliv := float64(c.gcs.Delivered) / 1000
	kx := float64(c.xTxns) / 1000
	g := &c.gcs
	wire := float64(g.Sent + g.Retransmits + g.Nacks + g.AssignAcks + g.Gossips)

	newMS := make([]float64, 0, len(p.reps))
	for _, st := range p.clean() {
		newMS = append(newMS, st.NewS*1e3)
	}
	return map[string]float64{
		"sim.events_per_txn":    ratio(float64(c.events), issued),
		"sim.events_per_wall_s": ratio(float64(c.events), c.wallS),

		"simnet.bytes_per_txn":    ratio(float64(c.netBytes), issued),
		"simnet.dropped_per_ktxn": ratio(float64(c.dropped), ktxn),

		"csrt.cpu_txn_util_pct":   ratio(c.cpuTxnUtil, reps),
		"csrt.cpu_proto_util_pct": ratio(c.cpuProtoUtil, reps),

		"gcs.wire_msgs_per_delivery":       ratio(wire, float64(g.Delivered)),
		"gcs.retransmits_per_kdelivery":    ratio(float64(g.Retransmits), kdeliv),
		"gcs.nacks_per_kdelivery":          ratio(float64(g.Nacks), kdeliv),
		"gcs.blocked_ms_per_ktxn":          ratio(g.BlockedTime.Millis(), ktxn),
		"gcs.uniform_stalls_per_kdelivery": ratio(float64(g.UniformStalls), kdeliv),
		"gcs.view_changes":                 ratio(float64(g.ViewChanges), reps),
		"gcs.mispredict_pct":               ratio(c.mispredict, reps),
		"gcs.queue_peak_kb":                float64(g.QueuePeakBytes) / 1024,

		"db.lock_waits_per_ktxn": ratio(float64(c.lockWaits), ktxn),
		"db.rejected_per_issued": ratio(float64(c.rejected), issued),
		"db.disk_util_pct":       ratio(c.diskUtil, reps),

		"tpcc.retries_per_issued": ratio(float64(c.retries), issued),
		"tpcc.giveups_per_issued": ratio(float64(c.giveUps), issued),

		"replica.cert_decide_ms":      ratio(c.certDecideMS, float64(c.certDecideN)),
		"replica.cert_final_ms":       ratio(c.certFinalMS, float64(c.certFinalN)),
		"replica.rollbacks_per_ktxn":  ratio(float64(c.rollbacks), ktxn),
		"replica.preapply_wasted_pct": 100 * ratio(float64(c.preApplyWasted), float64(c.preApplied)),
		"replica.backlog_peak":        float64(c.backlogPeak),
		"replica.xgroup_txn_pct":      100 * ratio(float64(c.xCommitted), float64(c.committed)),
		"replica.xretries_per_kx":     ratio(float64(c.xRetries), kx),
		"replica.xvetoes_per_kx":      ratio(float64(c.xVetoes), kx),

		"recovery.rejoin_ms":     ratio(c.recoveryMS, float64(c.recoveries)),
		"recovery.downtime_ms":   ratio(c.downtimeMS, float64(c.recoveries)),
		"recovery.transfer_kb":   ratio(float64(c.transferBytes)/1024, float64(c.recoveries)),
		"recovery.delta_applied": ratio(float64(c.deltaApplied), float64(c.recoveries)),

		"core.new_ms":             median(newMS),
		"core.wall_s_per_sim_min": ratio(c.wallS, c.simS/60),
	}
}

// hostMetrics are the process-level costs of the clean replications of an
// untraced pass: CPU including the GC's threads (so "faster" can be told from
// "moved to another thread"), allocation counts, and GC activity.
func hostMetrics(p *pass) map[string]float64 {
	h := &p.ctr.host
	issued := float64(p.ctr.issued)
	return map[string]float64{
		"host.cpu_s_per_ktxn":     ratio(h.CPUS, issued/1000),
		"host.allocs_per_txn":     ratio(float64(h.Mallocs), issued),
		"host.gc_cpu_pct":         100 * ratio(h.GCCPUS, h.CPUS),
		"host.gc_cycles_per_ktxn": ratio(float64(h.GCCycles), issued/1000),
		"host.heap_end_mb":        p.heapEndMB,
		"host.calib_mops":         p.kernelMedians().ALU,
	}
}
