package main

// metricDef names one reported metric. The tables below are the single
// source of the names, units, directions and bounds; BENCHMARK.json at
// the repo root restates them and TestBenchmarkJSONMatches keeps the two
// in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // share of the baseline a later change may worsen it by; end-to-end only
}

// endToEndDefs are what a user of the system would see, per workload.
// One bound serves all four workloads: it is about three times the
// widest quartile spread ten runs showed on the sizing host (README,
// "Steadiness"), capped at the 25 % the benchmark's contract allows.
// failed_frac is not listed: it must be exactly 0 on every run, so it
// travels as the result's attempted/failed counts and a non-zero value
// fails the run instead of being compared against a bound. The tail
// (p90, p99, max) is in the client diagnostics below: between identical
// runs it spread by 10 to 40 %, more than any bound allowed here.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cmds_per_s", "1/s", "higher", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_cmd", "ms", "lower", 0.25},
}

// perLayerDefs are the traced run's metrics, one ladder for every
// workload. Replays run at the workload's own shape; a counter the
// workload's engine does not have reads 0.
var perLayerDefs = []metricDef{
	{name: "field.ops_per_cmd_per_node", unit: "count", better: "lower"},
	{name: "field.mulvec_ns_per_elem", unit: "ns", better: "lower"},
	{name: "field.scaleacc_ns_per_elem", unit: "ns", better: "lower"},
	{name: "poly.interpolate_us", unit: "us", better: "lower"},
	{name: "poly.evalmany_us", unit: "us", better: "lower"},
	{name: "rs.decode_us", unit: "us", better: "lower"},
	{name: "rs.decode_allocs", unit: "count", better: "lower"},
	{name: "lcc.encode_us", unit: "us", better: "lower"},
	{name: "lcc.decode_us", unit: "us", better: "lower"},
	{name: "lcc.decode_allocs", unit: "count", better: "lower"},
	{name: "lcc.primed_decode_us", unit: "us", better: "lower"},
	{name: "lcc.primed_hit_frac", unit: "ratio", better: "higher"},
	{name: "sm.apply_us", unit: "us", better: "lower"},
	{name: "consensus.pbft_local_us", unit: "us", better: "lower"},
	{name: "consensus.pbft_tcp_us", unit: "us", better: "lower"},
	{name: "consensus.pbft_ticks", unit: "count", better: "lower"},
	{name: "consensus.pbft_msgs", unit: "count", better: "lower"},
	{name: "consensus.pbft_bytes", unit: "B", better: "lower"},
	{name: "transport.tcp_tick_us", unit: "us", better: "lower"},
	{name: "transport.sim_tick_us", unit: "us", better: "lower"},
	{name: "transport.step_wait_us_per_cmd", unit: "us", better: "lower"},
	{name: "transport.send_us_per_cmd", unit: "us", better: "lower"},
	{name: "transport.msgs_per_cmd", unit: "count", better: "lower"},
	{name: "transport.bytes_per_cmd", unit: "B", better: "lower"},
	{name: "transport.ticks_per_cmd", unit: "count", better: "lower"},
	{name: "transport.forgeries_dropped", unit: "count", better: "lower"},
	{name: "wal.append_sync_us", unit: "us", better: "lower"},
	{name: "wal.append_nosync_us", unit: "us", better: "lower"},
	{name: "wal.snapshot_us", unit: "us", better: "lower"},
	{name: "wal.records_per_cmd", unit: "count", better: "lower"},
	{name: "wal.bytes_per_cmd", unit: "B", better: "lower"},
	{name: "csm.round_us", unit: "us", better: "lower"},
	{name: "csm.allocs_per_cmd", unit: "count", better: "lower"},
	{name: "csm.alloc_bytes_per_cmd", unit: "B", better: "lower"},
	{name: "csm.faulty_detected_per_round", unit: "count", better: "lower"},
	{name: "csm.ticks_per_round", unit: "count", better: "lower"},
	{name: "csm.skipped_rounds", unit: "count", better: "lower"},
	{name: "csm.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "ingress.overhead_us", unit: "us", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.commit_p90_ms", unit: "ms", better: "lower"},
	{name: "client.commit_p99_ms", unit: "ms", better: "lower"},
	{name: "client.commit_max_ms", unit: "ms", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pack pairs values with their definitions; a definition without a value
// is a bug in the benchmark, so it panics.
func pack(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("csmload: no value for metric " + d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func (r *runResult) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":        r.setupS,
		"cmds_per_s":     r.e2e.cmdsPerS,
		"commit_p50_ms":  r.e2e.commitP50ms,
		"cpu_ms_per_cmd": r.e2e.cpuMsPerCmd,
	}
}
