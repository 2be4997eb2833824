package main

import (
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/runtime"
	"ssrmin/internal/statemodel"
)

// engine-100k: the live tier at scale. runtime.Engine runs a 100,000-node
// SSRmin ring from a legitimate start in fast virtual time, sharded over
// one worker per CPU, with census tracking through the privilege
// callback. Event heap, SPSC rings, epoch barrier, rules and census are
// all multi-shard in steady state; bitslice and check are bypassed. The
// link parameters are BenchmarkRuntimeEngine's.

type engineConfig struct {
	n          int
	warmup     float64 // virtual seconds run during set-up
	window     float64 // virtual seconds per repetition
	slice      float64 // virtual seconds per RunUntil call
	tracedReps int     // traced windows: enough slices for a tail percentile
	ruleWindow float64 // virtual seconds counted under the rule-counting wrapper
	ruleViews  int     // views sampled to time the rules and the predicate
	probeCalls int     // rule evaluations per timing probe
	delay      time.Duration
	jitter     time.Duration
	refresh    time.Duration
}

var engineFull = engineConfig{
	n: 100_000, warmup: 0.25, window: 1.0, slice: 0.05, tracedReps: 4,
	ruleWindow: 0.25, ruleViews: 1 << 14, probeCalls: 2_000_000,
	delay: 10 * time.Millisecond, jitter: 2 * time.Millisecond, refresh: 50 * time.Millisecond,
}

// engineWindow is what one repetition observed.
type engineWindow struct {
	virtual float64 // virtual seconds covered
	stats   runtime.EngineStats
	census  []int // TrackedCensus after every slice
}

type engineWL struct {
	cfg     engineConfig
	seed    int64
	workers int
	alg     *core.Algorithm
	init    statemodel.Config[core.State]
	eng     *runtime.Engine[core.State]

	// Privilege-callback bookkeeping, indexed by node: a node is only
	// ever handled by its own shard's worker, so no two goroutines touch
	// one element.
	calls []uint32
	holds []bool
	gains []uint32

	reps int
	last engineWindow
	// The first window after set-up always covers the same virtual
	// interval, so its counts are the deterministic ones (and the w=1
	// cross-check replays it).
	first      engineWindow
	firstCalls int64 // privilege callbacks during the first window
	prevGains  int64
	prevCalls  int64
}

func newEngine(cfg engineConfig, seed int64) *engineWL {
	return &engineWL{cfg: cfg, seed: seed, workers: numWorkers()}
}

func (e *engineWL) name() string { return wEngine }

func (e *engineWL) params() map[string]any {
	return map[string]any{
		"n": e.cfg.n, "k": "n+1", "start": "legitimate", "workers": e.workers,
		"delay_ms": e.cfg.delay.Seconds() * 1e3, "jitter_ms": e.cfg.jitter.Seconds() * 1e3,
		"refresh_ms": e.cfg.refresh.Seconds() * 1e3, "coherent_caches": true,
		"warmup_sim_s": e.cfg.warmup, "window_sim_s": e.cfg.window, "slice_sim_s": e.cfg.slice,
	}
}

func (e *engineWL) options(workers int) runtime.Options[core.State] {
	return runtime.Options[core.State]{
		Delay: e.cfg.delay, Jitter: e.cfg.jitter, Refresh: e.cfg.refresh,
		Seed: e.seed, CoherentCaches: true, Workers: workers,
	}
}

func (e *engineWL) inputDigest() string {
	o := e.options(e.workers)
	return digest([]any{e.cfg.n, o.Delay, o.Jitter, o.Refresh, o.Seed})
}

// build constructs an engine over alg with census tracking installed.
func (e *engineWL) build(alg statemodel.Algorithm[core.State], workers int) *runtime.Engine[core.State] {
	eng := runtime.NewEngine[core.State](alg, e.init, e.options(workers))
	eng.SetPrivilegeCallback(core.HasToken, e.onPriv)
	return eng
}

func (e *engineWL) onPriv(id int, holds bool) {
	e.calls[id]++
	if holds && !e.holds[id] {
		e.gains[id]++
	}
	e.holds[id] = holds
}

func (e *engineWL) setup() error {
	e.alg = core.New(e.cfg.n, e.cfg.n+1)
	e.init = e.alg.InitialLegitimate()
	e.calls = make([]uint32, e.cfg.n)
	e.holds = make([]bool, e.cfg.n)
	e.gains = make([]uint32, e.cfg.n)
	e.eng = e.build(e.alg, e.workers)
	e.eng.RunUntil(e.cfg.warmup)
	e.reps = 0
	e.prevGains, e.prevCalls = e.sums()
	return nil
}

func (e *engineWL) teardown() {
	if e.eng != nil {
		e.eng.Stop()
		e.eng = nil
	}
}

func (e *engineWL) work() (float64, string) { return e.cfg.window, "simulated s" }

func (e *engineWL) sums() (gains, calls int64) {
	for i := range e.gains {
		gains += int64(e.gains[i])
		calls += int64(e.calls[i])
	}
	return gains, calls
}

func (e *engineWL) rep(tr *tracer, root int32) {
	e.last = runWindow(e.eng, e.cfg, tr, root)
	if e.reps == 0 {
		e.first = e.last
	}
	e.reps++
}

// runWindow advances eng by one window, slice by slice, reading the
// tracked census after every slice.
func runWindow(eng *runtime.Engine[core.State], cfg engineConfig, tr *tracer, root int32) engineWindow {
	before := eng.Stats()
	start := eng.Now()
	slices := int(cfg.window/cfg.slice + 0.5)
	w := engineWindow{census: make([]int, 0, slices)}
	for i := 1; i <= slices; i++ {
		s := tr.begin("engine.RunUntil", root)
		eng.RunUntil(start + float64(i)*cfg.slice)
		tr.end(s)
		c := tr.begin("engine.TrackedCensus", root)
		census, _ := eng.TrackedCensus()
		tr.end(c)
		w.census = append(w.census, census)
	}
	after := eng.Stats()
	w.virtual = eng.Now() - start
	w.stats = runtime.EngineStats{
		Events: after.Events - before.Events, Sent: after.Sent - before.Sent,
		Carried: after.Carried - before.Carried, Dropped: after.Dropped - before.Dropped,
		Rules: after.Rules - before.Rules,
	}
	return w
}

// check demands graceful handover throughout: after every slice between
// one and two nodes hold a token, and tokens moved during the window.
func (e *engineWL) check() tally {
	var t tally
	for i, c := range e.last.census {
		t.expect(c >= 1 && c <= 2, "engine window %d slice %d: census %d outside 1..2", e.reps, i, c)
	}
	gains, calls := e.sums()
	windowGains := gains - e.prevGains
	if e.reps == 1 {
		e.firstCalls = calls - e.prevCalls
	}
	e.prevGains, e.prevCalls = gains, calls
	t.expect(windowGains > 0, "engine window %d: no privilege handover in %.2f virtual s", e.reps, e.last.virtual)
	return t
}

func (e *engineWL) minTracedReps() int { return e.cfg.tracedReps }

func (e *engineWL) counts() map[string]float64 {
	v := e.first.virtual
	return map[string]float64{
		"engine.events_per_sim_s":  float64(e.first.stats.Events) / v,
		"engine.rules_per_sim_s":   float64(e.first.stats.Rules) / v,
		"engine.sent_per_sim_s":    float64(e.first.stats.Sent) / v,
		"engine.dropped_per_sim_s": float64(e.first.stats.Dropped) / v,
		"engine.privcb_per_sim_s":  float64(e.firstCalls) / v,
	}
}

func (e *engineWL) layers(tr *tracer, m metricSet) tally {
	var t tally
	for name, v := range e.counts() {
		m[name] = v
	}
	lt := layerTotals(tr.snapshot())
	eventsPerRep := float64(e.first.stats.Events)
	m["engine.events_per_s"] = eventsPerRep / m["rep_s"]
	m["engine.ns_per_event"] = m["rep_s"] * 1e9 / eventsPerRep
	if sl := lt["engine.RunUntil"]; sl != nil {
		ms := sl.durationsMS()
		m["engine.slice_p50_ms"] = median(ms)
		m["engine.slice_tail_ms"] = quantile(ms, tailQuantile(len(ms)))
	}
	if c := lt["engine.TrackedCensus"]; c != nil {
		m["engine.census_ns"] = float64(c.totalNS) / float64(c.calls)
	}

	probe := tr.begin("probes", -1)
	defer tr.end(probe)

	// One worker over the same first window: same events (the engine is
	// deterministic across worker counts), on one core.
	s := tr.begin("engine.w1_window", probe)
	one := e.build(e.alg, 1)
	one.RunUntil(e.cfg.warmup)
	start := time.Now()
	w1 := runWindow(one, e.cfg, nil, -1)
	w1Wall := time.Since(start).Seconds()
	one.Stop()
	tr.end(s)
	t.expect(w1.stats == e.first.stats, "engine: w=1 window stats %+v differ from w=%d %+v", w1.stats, e.workers, e.first.stats)
	m["engine.w1_events_per_s"] = float64(w1.stats.Events) / w1Wall
	m["engine.parallel_speedup"] = m["engine.events_per_s"] / m["engine.w1_events_per_s"]

	// Rule cost: count the engine's rule calls through a wrapper on one
	// worker (uncontended counters), then time the rules on views sampled
	// from that run.
	s = tr.begin("engine.rule_window", probe)
	rc := &ruleCounter{Algorithm: e.alg, sample: e.cfg.ruleViews}
	counted := e.build(rc, 1)
	counted.RunUntil(e.cfg.warmup)
	rc.enabled, rc.applied = 0, 0
	before := counted.Stats()
	counted.RunUntil(e.cfg.warmup + e.cfg.ruleWindow)
	after := counted.Stats()
	counted.Stop()
	tr.end(s)
	events := float64(after.Events - before.Events)
	t.expect(rc.applied == after.Rules-before.Rules, "engine: wrapper saw %d rule applications, engine counted %d",
		rc.applied, after.Rules-before.Rules)
	calls := float64(rc.enabled + rc.applied)
	m["engine.rule_calls_per_event"] = calls / events
	ruleNS, holderNS := timeRules(e.alg, rc.views, e.cfg.probeCalls)
	m["engine.rule_ns"] = ruleNS
	w1NSPerEvent := w1Wall * 1e9 / float64(w1.stats.Events)
	m["engine.rule_share"] = m["engine.rule_calls_per_event"] * ruleNS / w1NSPerEvent

	// What the rules and the privilege predicate (evaluated once per
	// callback) explain of a one-worker event; the rest — event heap,
	// CST sends, SPSC transfer, epoch barrier — has no span yet.
	cbPerEvent := float64(e.firstCalls) / float64(e.first.stats.Events)
	m["engine.unexplained_share"] = 1 - (m["engine.rule_calls_per_event"]*ruleNS+cbPerEvent*holderNS)/w1NSPerEvent
	return t
}

// ruleCounter wraps the algorithm to count the engine's rule calls and
// keep a sample of the views it evaluated. It is used on one worker only.
type ruleCounter struct {
	*core.Algorithm
	enabled, applied int64
	sample           int
	views            []statemodel.View[core.State]
}

func (r *ruleCounter) EnabledRule(v statemodel.View[core.State]) int {
	r.enabled++
	if len(r.views) < r.sample {
		r.views = append(r.views, v)
	}
	return r.Algorithm.EnabledRule(v)
}

func (r *ruleCounter) Apply(v statemodel.View[core.State], rule int) core.State {
	r.applied++
	return r.Algorithm.Apply(v, rule)
}

// timeRules replays sampled views: nanoseconds per rule call (guard
// evaluation or command) and per privilege-predicate evaluation.
func timeRules(alg *core.Algorithm, views []statemodel.View[core.State], calls int) (ruleNS, holderNS float64) {
	if len(views) == 0 {
		return 0, 0
	}
	passes := max(1, calls/len(views))
	var acc int
	n := 0
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, v := range views {
			n++
			if r := alg.EnabledRule(v); r != 0 {
				n++
				acc += alg.Apply(v, r).X
			}
		}
	}
	ruleNS = float64(time.Since(start).Nanoseconds()) / float64(n)
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, v := range views {
			if core.HasToken(v) {
				acc++
			}
		}
	}
	holderNS = float64(time.Since(start).Nanoseconds()) / float64(passes*len(views))
	probeSink ^= uint64(acc)
	return ruleNS, holderNS
}
