package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the storage system sees, printed
// by every untraced run. Wall metrics time the Go program; sim_* and
// the capacity metrics are the paper's simulated outputs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_req_per_s", "1/s", "higher", 0.25},
	{"wall_write_p50_us", "us", "lower", 0.25},
	{"wall_write_p99_us", "us", "lower", 0.25},
	{"wall_read_p50_us", "us", "lower", 0.25},
	{"wall_read_p99_us", "us", "lower", 0.25},
	{"sim_write_mean_us", "us", "lower", 0.2},
	{"sim_read_mean_us", "us", "lower", 0.25},
	{"sim_p99_us", "us", "lower", 0.2},
	{"writes_removed_pct", "%", "higher", 0.05},
	{"stored_per_user_block", "ratio", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.01},
}

// cpuLayers are the packages a CPU sample can be charged to: the
// internal packages these workloads execute, "pod" for the root
// package, "bench" for this harness, "other" for any other package of
// the module, and "runtime" for samples with no module frame (GC,
// scheduler, idle spinning).
var cpuLayers = []string{
	"alloc", "bgdedup", "cache", "cdc", "chunk", "core", "disk", "engine",
	"globalfp", "icache", "index", "maptable", "metrics", "nvram", "probe",
	"raid", "server", "sim", "stats", "trace", "workload",
	"pod", "bench", "other", "runtime",
}

// perLayer lists the metrics of the traced run: spans around the
// harness's calls into each layer, CPU share by package, and counts
// read from the engines' metrics registries at layer boundaries.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.gen_s", "s", "lower", 0},
		{"engine.write_calls", "count", "lower", 0},
		{"engine.read_calls", "count", "lower", 0},
		{"engine.write_busy_s", "s", "lower", 0},
		{"engine.read_busy_s", "s", "lower", 0},
		{"bench.window_self_s", "s", "lower", 0},
		{"server.submit_s", "s", "lower", 0},
		{"server.submit_self_s", "s", "lower", 0},
		{"server.close_s", "s", "lower", 0},
		{"trace.overhead_pct", "%", "lower", 0},
		{"cpu.sampled_s", "s", "lower", 0},
		{"core.cat1", "count", "higher", 0},
		{"core.cat2", "count", "lower", 0},
		{"core.cat3", "count", "higher", 0},
		{"chunk.sim_fingerprint_busy_s", "s", "lower", 0},
		{"icache.index_hit_ratio", "ratio", "higher", 0},
		{"icache.read_hit_ratio", "ratio", "higher", 0},
		{"icache.ghost_hits", "count", "lower", 0},
		{"icache.repartitions", "count", "lower", 0},
		{"icache.swapins", "count", "lower", 0},
		{"maptable.updates", "count", "lower", 0},
		{"maptable.shared_entries_peak", "count", "higher", 0},
		{"maptable.nvram_peak_bytes", "bytes", "lower", 0},
		{"alloc.free_extents", "count", "lower", 0},
		{"alloc.largest_free", "blocks", "higher", 0},
		{"raid.disk_ios", "count", "lower", 0},
		{"raid.rmw_ratio", "ratio", "lower", 0},
		{"disk.sim_read_busy_s", "s", "lower", 0},
		{"disk.sim_write_busy_s", "s", "lower", 0},
		{"server.sim_queue_wait_p50_us", "us", "lower", 0},
		{"server.sim_queue_wait_p99_us", "us", "lower", 0},
		{"server.mean_batch", "count", "higher", 0},
		{"globalfp.ads_drop_ratio", "ratio", "lower", 0},
		{"globalfp.hints_installed", "count", "lower", 0},
		{"globalfp.remaps_applied", "count", "higher", 0},
		{"globalfp.useful_hint_ratio", "ratio", "higher", 0},
		{"bgdedup.scanned_blocks", "count", "lower", 0},
		{"bgdedup.reclaim_ratio", "ratio", "higher", 0},
		{"runtime.allocs_per_req", "count", "lower", 0},
		{"runtime.alloc_bytes_per_req", "bytes", "lower", 0},
		{"runtime.gc_cycles", "count", "lower", 0},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "%", "lower", 0})
	}
	return defs
}()

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted ascending
// samples (0 when empty).
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
