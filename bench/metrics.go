package main

import "strings"

// metricDef names one reported metric. BENCHMARK.json lists the same names
// with the same units (bench_test.go holds the two in step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the five gated metrics; every workload reports all five.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"round_ms_ref", "ms", "lower"},
	{"virt_ms_per_round", "ms", "lower"},
	{"alloc_mb_per_round", "MB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// layerOps are the engine operations the per-op families are reported for:
// the six library calls and the 8-member BFS wave group.
var layerOps = []string{"pagerank", "cc", "bfs", "sssp", "dirbfs", "deltasssp", "shared8"}

// perLayer is every per-layer metric, in the order of the layer table in
// README.md. A workload that does not exercise a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit, better})
		}
	}
	perOp := func(pattern, unit, better string) {
		for _, op := range layerOps {
			add(unit, better, strings.Replace(pattern, "<op>", op, 1))
		}
	}
	// Set-up.
	add("ms", "lower", "graphgen.generate_ms", "slottedpage.build_ms")
	add("count", "lower", "slottedpage.pages")
	add("ms", "lower", "gts.new_system_ms", "bufpool.new_ms", "service.load_ms", "run.warmup_ms",
		"wal.replay_ms", "wal.replay_ms_per_batch")
	add("KB", "lower", "wal.bytes")
	// internal/kernels: host time inside gather/apply.
	perOp("kernels.<op>.host_ms", "ms", "lower")
	add("Medges/s", "higher", "kernels.pagerank.host_medges_per_s", "kernels.bfs.host_medges_per_s")
	add("ms", "lower", "kernels.pagerank.host_ms_w1")
	add("ratio", "higher", "core.parallel_speedup")
	// internal/core + internal/sim: engine build, planning, event loop.
	perOp("core.<op>.wall_ms", "ms", "lower")
	perOp("core.<op>.self_ms", "ms", "lower")
	perOp("core.<op>.pages_streamed", "count", "lower")
	// internal/hw + internal/costmodel: the virtual clock.
	perOp("sim.<op>.virt_ms", "ms", "lower")
	perOp("hw.<op>.transfer_virt_ms", "ms", "lower")
	perOp("hw.<op>.kernel_virt_ms", "ms", "lower")
	perOp("hw.<op>.bytes_to_gpu_mb", "MB", "lower")
	add("ms", "lower", "trace.copy_virt_ms", "trace.kernel_virt_ms", "trace.io_virt_ms",
		"trace.copywa_virt_ms", "trace.sync_virt_ms")
	add("ratio", "lower", "costmodel.pagerank.residual", "costmodel.bfs.residual")
	// internal/bufpool + storage.
	add("ratio", "higher", "bufpool.hit_ratio", "core.cache_hit_ratio")
	add("count", "lower", "bufpool.loads_per_round", "bufpool.evictions_per_round", "bufpool.pin_waits_per_round")
	add("MB", "lower", "hw.storage_mb_per_round")
	add("ns", "lower", "bufpool.pin_ns")
	// Shared engine + internal/sched.
	add("count", "lower", "core.shared.waves", "core.shared.page_copies")
	add("ratio", "higher", "core.shared.servings_per_copy")
	add("MB", "higher", "core.shared.bytes_saved_mb")
	add("count", "lower", "sched.groups_per_round", "sched.solo_fallbacks")
	add("count", "higher", "sched.mean_group_size")
	// internal/service.
	add("ms", "lower", "service.http_ms_p50.bfs_miss", "service.http_ms_p50.bfs_hit",
		"service.http_ms_p50.inc_bfs", "service.http_ms_p50.inc_cc", "service.http_ms_p50.ingest",
		"service.http_ms_p50.burst", "service.queue_wait_ms_p50", "service.run_wall_ms_p50",
		"service.overhead_ms")
	add("MB", "lower", "service.resp_mb_per_round")
	add("ratio", "higher", "service.cache_hit_ratio")
	add("count", "lower", "service.coalesced_per_round")
	// internal/wal + slottedpage.Mutable.
	add("KB", "lower", "wal.appended_kb_per_batch")
	add("count", "lower", "wal.fsyncs_per_batch")
	add("ms", "lower", "wal.append_sync_ms", "slottedpage.apply_batch_ms", "service.ingest_self_ms")
	// internal/incremental.
	add("count", "higher", "incremental.hits_per_round", "incremental.saved_supersteps_per_round")
	add("count", "lower", "incremental.fallbacks_per_round", "incremental.retained_entries")
	add("ratio", "lower", "incremental.wall_ratio")
	// Process: context for every gated number.
	add("ms", "lower", "run.round_ms_p10", "run.round_ms_p50", "run.round_ms_p70", "run.round_ms_max", "run.cpu_ms_per_round")
	add("ratio", "higher", "run.cores_used")
	add("count", "lower", "run.gc_cycles_per_round")
	add("ms", "lower", "run.gc_pause_ms_per_round")
	add("count", "lower", "run.allocs_per_round")
	add("MB", "lower", "run.peak_rss_mb")
	add("ratio", "lower", "env.steal_ratio", "env.speed_factor", "trace.overhead_ratio")
	add("count", "lower", "trace.spans_per_round")
	add("ratio", "higher", "trace.round_coverage")
	return out
}
