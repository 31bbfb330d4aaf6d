package main

// metricDef names one metric the benchmark reports. BENCHMARK.json lists
// the same names; TestCatalogueMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. An "op" is one figure pass, one campaign pass or one rmtd
// request; a unit of work is one simulation, one fault trial or one
// request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"sim_kcycles_per_s", "kcycles/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
}

var modeNames = []string{"base", "base2", "srt", "lockstep", "crt", "srtr", "adaptive"}

var snapModes = []string{"srt", "crt", "srtr"}

// perLayer are the metrics of a traced run. Each workload reports all of
// them; a layer the workload does not exercise reads 0. LAYERS.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit, better})
		}
	}
	// internal/runner
	add("ratio", "higher", "runner.utilisation")
	add("count", "lower", "runner.jobs")
	// machine build: internal/sim, internal/mem, internal/progen
	for _, mode := range modeNames {
		add("us", "lower", "sim.build_us_p50."+mode)
	}
	add("count", "lower", "sim.build_allocs")
	add("KB", "lower", "sim.build_kb")
	add("us", "lower", "mem.hierarchy_new_us")
	add("count", "lower", "mem.hierarchy_new_allocs")
	// stepping: internal/pipeline, mem, predict, vm, rmt
	for _, mode := range modeNames {
		add("kcycles/s", "higher", "sim.kcycles_per_s."+mode)
	}
	add("count", "lower", "sim.run_allocs_per_mcycle")
	add("kinstr/s", "higher", "vm.thread_kips")
	add("share", "lower", "cpu.pipeline.fetch", "cpu.pipeline.dispatch", "cpu.pipeline.issue",
		"cpu.pipeline.retire", "cpu.pipeline.drain", "cpu.mem", "cpu.predict", "cpu.vm", "cpu.rmt")
	// snapshot layer
	for _, mode := range snapModes {
		add("ms", "lower", "snap.encode_ms."+mode)
	}
	for _, mode := range snapModes {
		add("ms", "lower", "snap.restore_ms."+mode)
	}
	for _, mode := range snapModes {
		add("bytes", "lower", "snap.bytes."+mode)
	}
	add("count", "lower", "snap.encode_allocs", "snap.restore_allocs")
	add("ms", "lower", "snap.persist_ms")
	add("share", "lower", "cpu.snap")
	add("ratio", "lower", "sim.srtr_over_srt")
	// internal/fault, from outside
	add("s", "lower", "fault.golden_s", "fault.replay_wall_s", "fault.replay_busy_s")
	add("count", "higher", "fault.cheap_trials", "fault.detected", "fault.masked", "fault.recovered")
	add("count", "lower", "fault.unprotected_sdc", "fault.not_fired", "fault.simcycles")
	// internal/server
	add("ratio", "higher", "server.hit_ratio")
	add("count", "higher", "server.dedup")
	add("count", "lower", "server.evictions", "server.rejected")
	add("ms", "lower", "server.miss_overhead_ms_p50")
	add("us", "lower", "server.encode_us_p50")
	add("share", "lower", "cpu.server", "cpu.json")
	// Go runtime
	add("share", "lower", "cpu.gc")
	add("count", "lower", "gc.cycles")
	add("ms", "lower", "gc.pause_ms")
	// model counts (rmt.WithMetrics), deterministic
	add("count", "lower", "model.simcycles", "model.committed", "model.dcache_misses",
		"model.icache_misses", "model.branch_mispredicts", "model.lvq_pushes",
		"model.lpq_pushes", "model.store_compares")
	// workload-specific figures not already end-to-end, from the traced
	// run's untraced phase; 0 on the other workloads
	add("ms", "lower", "rmtd_hit_ms_p50", "rmtd_hit_ms_p99", "rmtd_miss_ms_p50", "rmtd_miss_ms_p90")
	// the measured rmtd request mix, as shares of all requests
	add("ratio", "higher", "rmtd.share.hit")
	add("ratio", "lower", "rmtd.share.miss", "rmtd.share.dedup", "rmtd.share.sweep", "rmtd.share.campaign")
	// the benchmark's own HTTP client, included in rmtd's allocs_per_op
	add("count", "lower", "rmtd.client_allocs_per_req")
	add("ratio", "lower", "paper_eff_abs_err")
	add("%", "lower", "trace.overhead_pct")
	return m
}
