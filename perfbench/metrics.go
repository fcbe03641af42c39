package main

// metric is one reported figure with its unit.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd lists every end-to-end metric in report order; a workload
// reports those that apply to it. "Sim" figures are simulated time and
// replay exactly for a seed; the first five are host figures measured
// on the benchmark process.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"wall_ms_per_sim_s", "ms/s"},
	{"heap_peak_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"client_p50_ms", "ms"},
	{"client_p99_ms", "ms"},
	{"control_p99_ms", "ms"},
	{"slo_miss_frac", "frac"},
	{"freeze_p50_ms", "ms"},
	{"freeze_max_ms", "ms"},
	{"drain_makespan_s", "s"},
	{"wire_mb", "MiB"},
	{"heal_s", "s"},
	{"detect_s", "s"},
	{"fail_frac", "frac"},
}

// guarded are the end-to-end metrics BENCHMARK.json bounds and the
// result line carries: reported by every workload and steady across runs.
// wall_s and wall_ms_per_sim_s are printed but not guarded: on a shared
// virtual machine the host's speed drifts by tens of percent over minutes, more
// than the largest bound a guarded metric may have.
var guarded = []string{"setup_s", "heap_peak_mb", "alloc_mb", "wire_mb"}

// cpuLayers are the buckets CPU profile samples fall into: this
// repository's modules, the Go runtime's collector and scheduler, the
// benchmark itself, and other for the remaining modules.
var cpuLayers = []string{
	"sim", "vm", "kernel", "netsim", "core", "apps", "ha", "controller", "load", "obs",
	"vfs", "nfs", "cluster", "runtime.gc", "runtime.sched", "bench", "other",
}

// allocLayers are the buckets allocated bytes are reported in: the CPU
// buckets less the runtime's, whose few allocations count as other.
var allocLayers = []string{
	"sim", "vm", "kernel", "netsim", "core", "apps", "ha", "controller", "load", "obs",
	"vfs", "nfs", "cluster", "bench", "other",
}

// registryCounts are the obs registry counters work counts come from,
// summed across hosts. kernel.sys_cpu_us is reported as kernel.sys_cpu_s.
var registryCounts = []string{
	"kernel.syscalls", "kernel.sys_cpu_us", "kernel.dumps", "kernel.dump_aborts",
	"stream.records", "stream.wire_bytes", "stream.saved_bytes", "stream.pages_raw",
	"stream.pages_zero", "stream.pages_ref", "stream.pages_lz", "stream.pages_spec",
	"stream.spec_nacks", "stream.resends", "stream.hash_mismatches",
	"pagestore.hits", "pagestore.misses", "pagestore.inserts", "pagestore.evictions", "pagestore.poisoned",
	"migd.txn_commits", "migd.txn_aborts", "migd.call_retries", "migd.backoff_wait_us", "migd.stream_rounds",
	"hb.beacons_out", "hb.beacons_in", "hb.beacon_fail", "hb.summaries_in", "hb.syncs_out",
	"ha.suspicions", "ha.false_suspicions", "ha.checkpoints", "ha.ckpt_wire_bytes", "ha.recoveries",
	"controller.rounds", "controller.moves", "controller.move_failed", "controller.drain_waves",
	"controller.drain_prewarms", "controller.respawns", "controller.adoptions",
	"load.submitted", "load.completed", "load.dropped", "load.slo_breaches",
}

// workCounts are the per-layer counts and ratios, each with its unit.
// They replay exactly for a seed.
func workCounts() []metric {
	out := []metric{
		{"sim.events", "count"}, {"sim.event_allocs", "count"}, {"sim.heap_max", "count"},
		{"vm.user_cpu_s", "sim_s"}, {"kernel.sys_cpu_s", "sim_s"},
		{"netsim.msgs", "count"}, {"netsim.bytes", "bytes"}, {"netsim.bytes_elided", "bytes"},
		{"netsim.dropped", "count"}, {"obs.spans", "count"},
	}
	for _, name := range registryCounts {
		switch name {
		case "kernel.sys_cpu_us":
		case "migd.backoff_wait_us":
			out = append(out, metric{name, "sim_us"})
		case "stream.wire_bytes", "stream.saved_bytes", "ha.ckpt_wire_bytes":
			out = append(out, metric{name, "bytes"})
		default:
			out = append(out, metric{name, "count"})
		}
	}
	return append(out,
		metric{"pagestore.lookups", "count"}, metric{"pagestore.hit_ratio", "ratio"},
		metric{"stream.spec_hit_ratio", "ratio"},
		metric{"stream.raw_bytes", "bytes"}, metric{"stream.saved_ratio", "ratio"},
		metric{"migd.txns", "count"}, metric{"migd.commit_ratio", "ratio"},
		metric{"hb.beacon_ok_ratio", "ratio"},
	)
}

// perLayer lists every per-layer metric the traced run reports on every
// workload, in report order.
func perLayer() []metric {
	var out []metric
	for _, l := range cpuLayers {
		out = append(out, metric{l + ".cpu_share", "frac"})
	}
	for _, l := range allocLayers {
		out = append(out, metric{l + ".alloc_mb", "MiB"})
	}
	out = append(out, metric{"tracing.overhead_ratio", "ratio"})
	return append(out, workCounts()...)
}
