package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// root of the repository lists the same metrics; a test keeps the two in
// step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

// End-to-end metrics: what a user of the stack waits on, in host time
// scaled to the reference host's speed (see probe.go).
// Every workload reports all three; what one unit of work and one wait
// are on each workload is stated in workloads below and in README.md.
// The bounds are the widest allowed: the shared two-vCPU reference host
// drifts by a tenth over minutes, and ten-run quartile spreads of 5-12 %
// leave no room for a tighter one.
const (
	mSetup = "setup_s"
	mWork  = "work_per_s"
	mWait  = "wait_ms"
)

var endToEnd = []metricDef{
	{Name: mWork, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mWait, Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, <module>.<metric>, from the traced pass. A metric
// belonging to a layer the workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// sim: the simulation loops and the rig that shadows them.
	{Name: "sim.skip_ahead_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.every_cycle_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.skip_ahead_gain", Unit: "ratio", Better: "higher"},
	{Name: "sim.newsystem_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.allocs_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "sim.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "sim.insts", Unit: "count", Better: "higher"},
	{Name: "sim.rig_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.rig_unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.speed_index", Unit: "ratio", Better: "higher"},

	{Name: "memsys.self_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "memsys.share", Unit: "ratio", Better: "lower"},
	{Name: "memsys.parallel_ratio", Unit: "ratio", Better: "lower"},

	{Name: "memctrl.total_acts", Unit: "count", Better: "lower"},
	{Name: "memctrl.row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "memctrl.preventive_cmds", Unit: "count", Better: "lower"},
	{Name: "memctrl.gated_acts", Unit: "count", Better: "lower"},
	{Name: "memctrl.backoff_cycles", Unit: "count", Better: "lower"},
	{Name: "memctrl.tick_deep_ns", Unit: "ns", Better: "lower"},
	{Name: "memctrl.tick_shallow_ns", Unit: "ns", Better: "lower"},
	{Name: "memctrl.allocs_per_tick", Unit: "count", Better: "lower"},

	{Name: "dram.cmds_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "dram.refreshes", Unit: "count", Better: "lower"},
	{Name: "dram.bus_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "dram.energy_nj_per_kcycle", Unit: "nJ", Better: "lower"},

	{Name: "mitigation.on_activate_ns", Unit: "ns", Better: "lower"},
	{Name: "mitigation.share", Unit: "ratio", Better: "lower"},
	{Name: "mitigation.actions", Unit: "count", Better: "lower"},
	{Name: "mitigation.acts_per_action", Unit: "count", Better: "higher"},
	{Name: "mitigation.replay_ns.para", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.graphene", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.hydra", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.twice", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.aqua", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.rega", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.rfm", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.prac", Unit: "ns", Better: "lower"},
	{Name: "mitigation.replay_ns.blockhammer", Unit: "ns", Better: "lower"},

	{Name: "core.on_activate_ns", Unit: "ns", Better: "lower"},
	{Name: "core.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "core.suspect_events", Unit: "count", Better: "lower"},
	{Name: "core.throttled_windows", Unit: "count", Better: "lower"},
	{Name: "core.attacker_blame_share", Unit: "ratio", Better: "higher"},

	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.share", Unit: "ratio", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.blocked_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cache.quota_blocks", Unit: "count", Better: "lower"},

	{Name: "cpu.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "cpu.share", Unit: "ratio", Better: "lower"},
	{Name: "cpu.noprogress_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cpu.benign_ipc_mean", Unit: "ipc", Better: "higher"},

	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.share", Unit: "ratio", Better: "lower"},

	{Name: "sampling.speedup", Unit: "ratio", Better: "higher"},
	{Name: "sampling.detailed_share", Unit: "ratio", Better: "lower"},
	{Name: "sampling.windows", Unit: "count", Better: "higher"},
	{Name: "sampling.ff_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sampling.ws_err", Unit: "ratio", Better: "lower"},

	{Name: "exp.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.point_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.pool_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "exp.warm_prefetch_ms", Unit: "ms", Better: "lower"},
	{Name: "exp.render_ms", Unit: "ms", Better: "lower"},

	{Name: "results.open_ms", Unit: "ms", Better: "lower"},
	{Name: "results.put_ms", Unit: "ms", Better: "lower"},
	{Name: "results.get_us", Unit: "us", Better: "lower"},
	{Name: "results.reload_ms", Unit: "ms", Better: "lower"},
	{Name: "results.claim_us", Unit: "us", Better: "lower"},
	{Name: "results.coverage_us", Unit: "us", Better: "lower"},
	{Name: "results.shard_reads", Unit: "count", Better: "lower"},
	{Name: "results.bytes_per_point", Unit: "B", Better: "lower"},

	{Name: "serve.warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.warm_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us", Unit: "us", Better: "lower"},
	{Name: "serve.catalogue_us", Unit: "us", Better: "lower"},
	{Name: "serve.coverage_us", Unit: "us", Better: "lower"},
	{Name: "serve.closed_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.p99_ms_2x_rate", Unit: "ms", Better: "lower"},
	{Name: "serve.reject_us", Unit: "us", Better: "lower"},
	{Name: "serve.limited_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.gen_late_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sse_events", Unit: "count", Better: "higher"},
	{Name: "serve.cold_sim_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.cold_figure_s", Unit: "s", Better: "lower"},

	{Name: "fleet.lease_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.result_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "fleet.steals", Unit: "count", Better: "lower"},
	{Name: "fleet.duplicates", Unit: "count", Better: "lower"},

	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.span_cost_ns", Unit: "ns", Better: "lower"},
}

// workloadDef describes one workload: why it is here (BENCHMARK.json's
// "why"), and what the two generic end-to-end metrics mean on it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) *outcome
}

var workloads = []workloadDef{
	{Name: "sim-attack", run: simWorkload,
		Why: "one exact point, HHMA graphene+BH N_RH 128: deep queues, many VRRs, BreakHammer throttling; work=simulated cycles, wait=one point"},
	{Name: "sim-benign", run: simWorkload,
		Why: "same without an attacker (HMLL): shallow queues, mitigation idle, cpu+cache dominate; the no-change control for mitigation work"},
	{Name: "sim-multichan", run: simWorkload,
		Why: "8 cores, 4 channels, prac+BH: cycle batches, buffered event delivery, channel barrier, RFM/back-off; work=simulated cycles, wait=one point"},
	{Name: "sim-sampled", run: simWorkload,
		Why: "the sim-attack point under SMARTS sampling: the functional fast-forward path instead of the timing path; work=simulated cycles, wait=one point"},
	{Name: "sweep", run: sweepWorkload,
		Why: "exp.Runner over an on-disk store, figs 6-8: work=points of a cold sweep, wait=one warm pass (reopen store, prefetch, render)"},
	{Name: "serve", run: serveWorkload,
		Why: "bhserve over loopback: work=points of a cold figure from first GET to 200, wait=p75 of warm figure GETs at 100 req/s open loop"},
	{Name: "fleet", run: fleetWorkload,
		Why: "the sweep grid through the fleet coordinator and two workers: work=points, wait=the whole grid; the lease engine against exp.Runner"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
