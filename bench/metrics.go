package main

import "fmt"

// metricDef names one reported number. Scope says whose clock or counter it
// is: "sim" numbers are in simulated time or are model counters and repeat
// exactly for a seed; "host" numbers are wall-clock or OS measurements of the
// simulator itself. Units of simulated time carry a "sim-" prefix so the
// distinction survives in the bare {value, unit} result line.
type metricDef struct {
	Name   string
	Unit   string
	Scope  string // "host" or "sim"
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the simulator sees. Bounds live in
// BENCHMARK.json, the one place the driver and `repeat` both read.
var endToEnd = []metricDef{
	{"txn_per_wall_s", "txn/s", "host", "higher"},
	{"alloc_bytes_per_txn", "B/txn", "host", "lower"},
	{"peak_rss_mb", "MB", "host", "lower"},
	{"setup_s", "s", "host", "lower"},
	{"sim_tpm", "txn/sim-min", "sim", "higher"},
	{"sim_commit_p50_ms", "sim-ms", "sim", "lower"},
	{"sim_commit_p99_ms", "sim-ms", "sim", "lower"},
	{"sim_abort_pct", "%", "sim", "lower"},
}

// perLayer is the ledger: counters read from the whole-model run (sim scope),
// drivers timing each package's exported API (host scope, *_ns/_ms/_us), and
// the profile shares appended by init below.
var perLayer = []metricDef{
	{"sim.events_per_txn", "count", "sim", "lower"},
	{"sim.events_per_wall_s", "1/s", "host", "higher"},
	{"sim.schedule_step_ns", "ns", "host", "lower"},
	{"sim.cancel_ns", "ns", "host", "lower"},
	{"sim.poisson_ns", "ns", "host", "lower"},

	{"simnet.bytes_per_txn", "B/txn", "sim", "lower"},
	{"simnet.dropped_per_ktxn", "1/ktxn", "sim", "lower"},
	{"simnet.mcast3_ns", "ns", "host", "lower"},

	{"csrt.job_ns", "ns", "host", "lower"},
	{"csrt.cpu_txn_util_pct", "%", "sim", "lower"},
	{"csrt.cpu_proto_util_pct", "%", "sim", "lower"},

	{"gcs.abcast_host_ns", "ns", "host", "lower"},
	{"gcs.abcast_sim_us", "sim-us", "sim", "lower"},
	{"gcs.optcast_sim_us", "sim-us", "sim", "lower"},
	{"gcs.wire_msgs_per_delivery", "count", "sim", "lower"},
	{"gcs.retransmits_per_kdelivery", "1/kdelivery", "sim", "lower"},
	{"gcs.nacks_per_kdelivery", "1/kdelivery", "sim", "lower"},
	{"gcs.blocked_ms_per_ktxn", "sim-ms/ktxn", "sim", "lower"},
	{"gcs.uniform_stalls_per_kdelivery", "1/kdelivery", "sim", "lower"},
	{"gcs.view_changes", "count", "sim", "lower"},
	{"gcs.mispredict_pct", "%", "sim", "lower"},
	{"gcs.queue_peak_kb", "KB", "sim", "lower"},

	{"dbsm.certify_ns", "ns", "host", "lower"},
	{"dbsm.spec_certify_ns", "ns", "host", "lower"},
	{"dbsm.spec_rollback_ns", "ns", "host", "lower"},
	{"dbsm.marshal_ns", "ns", "host", "lower"},
	{"dbsm.unmarshal_ns", "ns", "host", "lower"},
	{"dbsm.cert_wire_bytes", "B", "sim", "lower"},

	{"db.central_txn_ns", "ns", "host", "lower"},
	{"db.lock_cycle_ns", "ns", "host", "lower"},
	{"db.reject_ns", "ns", "host", "lower"},
	{"db.lock_waits_per_ktxn", "1/ktxn", "sim", "lower"},
	{"db.rejected_per_issued", "count", "sim", "lower"},
	{"db.disk_util_pct", "%", "sim", "lower"},

	{"tpcc.next_txn_ns", "ns", "host", "lower"},
	{"tpcc.agg_arrival_ns", "ns", "host", "lower"},
	{"tpcc.retries_per_issued", "count", "sim", "lower"},
	{"tpcc.giveups_per_issued", "count", "sim", "lower"},

	{"replica.cert_decide_ms", "sim-ms", "sim", "lower"},
	{"replica.cert_final_ms", "sim-ms", "sim", "lower"},
	{"replica.rollbacks_per_ktxn", "1/ktxn", "sim", "lower"},
	{"replica.preapply_wasted_pct", "%", "sim", "lower"},
	{"replica.backlog_peak", "count", "sim", "lower"},
	{"replica.xgroup_txn_pct", "%", "sim", "lower"},
	{"replica.xretries_per_kx", "1/kx", "sim", "lower"},
	{"replica.xvetoes_per_kx", "1/kx", "sim", "lower"},

	{"recovery.rejoin_ms", "sim-ms", "sim", "lower"},
	{"recovery.downtime_ms", "sim-ms", "sim", "lower"},
	{"recovery.transfer_kb", "KB", "sim", "lower"},
	{"recovery.delta_applied", "count", "sim", "lower"},

	{"check.logs_ns_per_entry", "ns", "host", "lower"},

	{"metrics.add_ns", "ns", "host", "lower"},
	{"metrics.quantile_ms", "ms", "host", "lower"},

	{"core.new_ms", "ms", "host", "lower"},
	{"core.wall_s_per_sim_min", "s/sim-min", "host", "lower"},
	{"core.aggregate_us_per_run", "us", "host", "lower"},

	{"expr.speedup_nproc", "x", "host", "higher"},

	{"host.cpu_s_per_ktxn", "s/ktxn", "host", "lower"},
	{"host.allocs_per_txn", "1/txn", "host", "lower"},
	{"host.gc_cpu_pct", "%", "host", "lower"},
	{"host.gc_cycles_per_ktxn", "1/ktxn", "host", "lower"},
	{"host.heap_end_mb", "MB", "host", "lower"},
	{"host.calib_mops", "Mops", "host", "higher"},
	{"host.trace_overhead_pct", "%", "host", "lower"},
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer,
			metricDef{l + ".cpu_share_pct", "%", "host", "lower"},
			metricDef{l + ".alloc_share_pct", "%", "host", "lower"})
	}
}

// value is one entry of the result line's "metrics" object.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line object: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pack turns computed numbers into the result's metrics object, insisting
// that every defined metric is present and nothing else is.
func pack(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is computed but not defined", name)
			}
		}
	}
	return out, nil
}
