package main

// metricDecl declares one metric the benchmark emits. End-to-end metrics
// are what a user of the workload waits for; layer metrics say where that
// time goes and name the end-to-end metric they should move, on which
// workloads. BENCHMARK.json at the repository root declares the same
// names, units and directions (TestDeclarationsMatchBenchmarkJSON).
type metricDecl struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves and on apply to layer metrics: the end-to-end metric the
	// layer should move, and the workloads that exercise the layer. A
	// layer metric reads 0 on a workload outside on.
	moves string
	on    []string
}

const (
	wFig12  = "fig12-sweep"
	wVerify = "verify-n5"
	wEngine = "engine-100k"
	wSoak   = "soak-mix"
)

var allWorkloads = []string{wFig12, wVerify, wEngine, wSoak}

var e2eMetrics = []metricDecl{
	// Median set-up time over several set-ups in one process: input
	// generation, long-lived structures and one warm-up pass.
	{name: "setup_s", unit: "s", better: "lower"},
	// Median wall time of one fixed-size repetition: a fig12 sweep, one
	// n=5 verification, one virtual second of the 100k ring, one
	// 100-scenario soak.
	{name: "rep_s", unit: "s", better: "lower"},
	// Peak resident set of the process (VmHWM) after the set-ups and the
	// first repetition.
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
}

var (
	onFig12     = []string{wFig12}
	onVerify    = []string{wVerify}
	onEngine    = []string{wEngine}
	onSoak      = []string{wSoak}
	onFig12Soak = []string{wFig12, wSoak}
)

var layerMetrics = []metricDecl{
	// internal/bitslice
	{name: "bitslice.seed_share", unit: "ratio", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.seed_ns_per_lane", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.run_ns_per_step", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.lane_util", unit: "ratio", better: "higher", moves: "rep_s", on: onFig12},
	{name: "bitslice.step_ns.subset", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.step_ns.sync", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.draw_ns", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.rng_ns", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.legit_ns", unit: "ns", better: "lower", moves: "rep_s", on: onFig12},
	{name: "bitslice.unexplained_share", unit: "ratio", better: "lower", moves: "rep_s", on: onFig12},

	// internal/parsweep
	{name: "parsweep.busy_ratio.fig12", unit: "ratio", better: "higher", moves: "rep_s", on: onFig12},
	{name: "parsweep.busy_ratio.soak", unit: "ratio", better: "higher", moves: "rep_s", on: onSoak},
	{name: "parsweep.tail_s", unit: "s", better: "lower", moves: "rep_s", on: onFig12Soak},

	// internal/check
	{name: "check.compile_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.legitset_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.nodeadlock_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.closure_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.census_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.quiet_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.convergence_s", unit: "s", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.edges", unit: "count", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.kahn_layers", unit: "count", better: "lower", moves: "rep_s", on: onVerify},
	{name: "check.bookkeeping_mib", unit: "MiB", better: "lower", moves: "peak_rss_mib", on: onVerify},
	{name: "check.unexplained_share", unit: "ratio", better: "lower", moves: "rep_s", on: onVerify},

	// internal/runtime
	{name: "engine.events_per_s", unit: "1/s", better: "higher", moves: "rep_s", on: onEngine},
	{name: "engine.ns_per_event", unit: "ns", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.events_per_sim_s", unit: "1/sim_s", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.rules_per_sim_s", unit: "1/sim_s", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.sent_per_sim_s", unit: "1/sim_s", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.dropped_per_sim_s", unit: "1/sim_s", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.slice_p50_ms", unit: "ms", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.slice_tail_ms", unit: "ms", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.census_ns", unit: "ns", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.privcb_per_sim_s", unit: "1/sim_s", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.rule_share", unit: "ratio", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.rule_ns", unit: "ns", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.rule_calls_per_event", unit: "ratio", better: "lower", moves: "rep_s", on: onEngine},
	{name: "engine.w1_events_per_s", unit: "1/s", better: "higher", moves: "rep_s", on: onEngine},
	{name: "engine.parallel_speedup", unit: "ratio", better: "higher", moves: "rep_s", on: onEngine},
	{name: "engine.unexplained_share", unit: "ratio", better: "lower", moves: "rep_s", on: onEngine},

	// internal/crosscheck over internal/statemodel, internal/msgnet +
	// internal/cst, and the live engine
	{name: "crosscheck.state_share", unit: "ratio", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.msgnet_share", unit: "ratio", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.live_share", unit: "ratio", better: "lower", moves: "rep_s", on: onSoak},
	{name: "msgnet.ns_per_frame", unit: "ns", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.rules.state", unit: "count", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.rules.msgnet", unit: "count", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.rules.live", unit: "count", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.scenario_p50_ms", unit: "ms", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.scenario_p99_ms", unit: "ms", better: "lower", moves: "rep_s", on: onSoak},
	{name: "crosscheck.unexplained_share", unit: "ratio", better: "lower", moves: "rep_s", on: onSoak},

	// internal/obs
	{name: "obs.overhead_ratio", unit: "ratio", better: "lower", moves: "rep_s", on: onSoak},

	// The benchmark's own span recording.
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "rep_s", on: allWorkloads},
}

// metricSet collects one run's metric values by name.
type metricSet map[string]float64

// lookupDecl finds a declared metric among decls.
func lookupDecl(decls []metricDecl, name string) (metricDecl, bool) {
	for _, d := range decls {
		if d.name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}
