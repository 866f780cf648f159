package main

import (
	"rocksim/internal/experiments"
	"rocksim/internal/sim"
)

// metricSpec names one reported metric. BENCHMARK.json at the
// repository root lists the same metrics with the same units, directions
// and bounds; a test keeps the two in step, and -compare reads the
// bounds from here.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of rocksimd, rockgate or sstbench
// sees, reported by every workload. An op is one /v1/run request on the
// service workloads and one experiment regeneration on grid. Each bound
// is the share of the baseline median by which the metric may worsen
// before a change counts as a regression; README.md records the
// measured spread each bound was set from.
var endToEnd = []metricSpec{
	{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p98_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// trivialExps are the experiments that render a fixed table without
// simulating anything; their regeneration time is noise.
var trivialExps = map[string]bool{"T1": true, "T3": true}

// gridExps lists the experiments whose regeneration time is a per-layer
// metric of the grid workload.
func gridExps() []string {
	var out []string
	for _, id := range experiments.All {
		if !trivialExps[id] {
			out = append(out, id)
		}
	}
	return out
}

// perLayer are the metrics of single layers, measured in the traced
// pass. Every workload reports every one of them; a layer the workload
// does not exercise reads 0 (gate-hit simulates nothing, grid crosses no
// HTTP layer, only grid regenerates experiments). README.md maps each to
// the end-to-end metric and workload it should move.
func perLayer() []metricSpec {
	l := []metricSpec{
		{Name: "http.rtt_self_ms", Unit: "ms", Better: "lower"},
		{Name: "gate.hop_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.decode_build_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.request_self_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.assemble_ms", Unit: "ms", Better: "lower"},
		{Name: "workload.build_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.cache_key_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.queue_wait_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "experiments.queue_wait_ms.p98", Unit: "ms", Better: "lower"},
		{Name: "experiments.cache_lookup_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.compute_self_ms", Unit: "ms", Better: "lower"},
		{Name: "experiments.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "experiments.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
		{Name: "sim.run_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "sim.run_ms.p98", Unit: "ms", Better: "lower"},
	}
	for _, k := range sim.Kinds {
		l = append(l, metricSpec{Name: "sim.mcycles_per_s." + k.String(), Unit: "Mcycle/s", Better: "higher"})
	}
	l = append(l,
		metricSpec{Name: "share.http", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "share.serve", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "share.experiments", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "share.sim", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	)
	for _, id := range gridExps() {
		l = append(l, metricSpec{Name: "grid.exp_s." + id, Unit: "s", Better: "lower"})
	}
	return l
}
