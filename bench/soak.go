package main

import (
	"fmt"
	"math/rand"
	"time"

	"ssrmin/internal/crosscheck"
	"ssrmin/internal/obs"
	"ssrmin/internal/parsweep"
	"ssrmin/internal/scenario"
)

// soak-mix: what soak users wait for. Differential crosscheck scenarios
// through all three tiers (state-reading simulator, CST over msgnet, the
// live engine on one worker), spread over parsweep.MapWith with pooled
// resources and one shared observer, as ssrmin-soak runs them. Even
// scenarios carry the states/caches fault storm of `ssrmin-soak -storm`,
// odd ones join/leave/splice churn. The live tier runs tiny single-shard
// rings that churn — the engine layer used the opposite way from
// engine-100k, so an engine gain that costs this use shows up here.

type soakConfig struct {
	scenarios int
	n, k      int
	horizon   float64
	settle    float64
	link      scenario.Link
	// warmScenarios run in the set-up warm-up pass.
	warmScenarios int
	// tracedReps repetitions give the scenario-latency tail enough
	// samples: p99 of 1000 has ten beyond it.
	tracedReps int
	// Traced-only passes: every tier alone on one worker over the first
	// tierScenarios scenarios, and the observer's overhead over the first
	// obsScenarios.
	tierScenarios int
	obsScenarios  int
}

var soakFull = soakConfig{
	scenarios: 100, n: 8, k: 14, horizon: 40, settle: 15,
	link:          scenario.Link{Delay: 0.01, Jitter: 0.002, Loss: 0.05, Dup: 0.1, Corrupt: 0.02},
	warmScenarios: 20, tracedReps: 10, tierScenarios: 100, obsScenarios: 100,
}

type soakTrial struct {
	rep crosscheck.Report
	err error
}

type soak struct {
	cfg       soakConfig
	seed      int64
	workers   int
	scenarios []crosscheck.Scenario
	pool      *parsweep.Pool[*crosscheck.Resources]

	reps   int
	last   []soakTrial
	rules  map[string]int64 // per-tier rule executions of the last repetition
	rules0 map[string]int64 // the same for the first repetition
	sweeps []*sweepClock    // one per traced repetition
}

func newSoak(cfg soakConfig, seed int64) *soak {
	return &soak{cfg: cfg, seed: seed, workers: numWorkers()}
}

func (s *soak) name() string { return wSoak }

func (s *soak) params() map[string]any {
	return map[string]any{
		"scenarios": s.cfg.scenarios, "n": s.cfg.n, "k": s.cfg.k, "horizon": s.cfg.horizon,
		"settle": s.cfg.settle, "link": s.cfg.link, "random_start": true, "incoherent_caches": true,
		"engines": crosscheck.AllEngines, "live_workers": 1, "workers": s.workers,
		"faults": "even: states/caches storm, odd: join/leave/splice churn",
	}
}

// makeScenarios generates the scenario list from the seed. Churn anchors
// are drawn until the plan is realizable, so every scenario validates.
func (s *soak) makeScenarios() ([]crosscheck.Scenario, error) {
	out := make([]crosscheck.Scenario, s.cfg.scenarios)
	for i := range out {
		base := crosscheck.Scenario{
			Name: fmt.Sprintf("soak-mix-%d", i), N: s.cfg.n, K: s.cfg.k,
			Seed: derive(s.seed, int64(i)), Horizon: s.cfg.horizon, Settle: s.cfg.settle,
			Link: s.cfg.link, RandomStart: true, IncoherentCaches: true, LiveWorkers: 1,
		}
		rng := rand.New(rand.NewSource(derive(s.seed, int64(i), 1)))
		var err error
		for try := 0; try < 100; try++ {
			sc := base
			if i%2 == 0 {
				h := s.cfg.horizon
				sc.Faults = []scenario.Fault{
					{At: 0.3 * h, Type: "states", Count: (s.cfg.n + 1) / 2},
					{At: 0.45 * h, Type: "caches", Count: s.cfg.n},
					{At: 0.6 * h, Type: "states", Count: 1},
				}
			} else {
				sc.Faults = churnFaults(rng, s.cfg.n, s.cfg.horizon)
			}
			if err = sc.Validate(); err == nil {
				out[i] = sc
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	return out, nil
}

// churnFaults draws one join, one leave and one splice in the first 60%
// of the horizon, leaving the rest to settle.
func churnFaults(rng *rand.Rand, n int, horizon float64) []scenario.Fault {
	at := func() float64 { return rng.Float64() * 0.6 * horizon }
	return []scenario.Fault{
		{At: at(), Type: "join", Node: rng.Intn(n)},
		{At: at(), Type: "leave", Node: 1 + rng.Intn(n-1)},
		{At: at(), Type: "splice", Node: rng.Intn(n), Count: 1 + rng.Intn(2)},
	}
}

func (s *soak) inputDigest() string {
	scs, err := s.makeScenarios()
	if err != nil {
		return "invalid: " + err.Error()
	}
	return digest(scs)
}

func (s *soak) setup() error {
	scs, err := s.makeScenarios()
	if err != nil {
		return err
	}
	s.scenarios = scs
	s.pool = parsweep.NewPool(crosscheck.NewResources)
	warm := scs[:min(s.cfg.warmScenarios, len(scs))]
	for i, t := range s.sweep(warm, obs.New(nil), nil, -1, nil) {
		if t.err != nil || !t.rep.OK() {
			return fmt.Errorf("warm-up scenario %d failed: %v %v", i, t.err, t.rep.Violations())
		}
	}
	s.reps = 0
	return nil
}

func (s *soak) teardown() {}

func (s *soak) work() (float64, string) { return float64(s.cfg.scenarios), "scenarios" }

// sweep runs scenarios over the pool on every worker, one span per
// scenario when traced.
func (s *soak) sweep(scs []crosscheck.Scenario, o *obs.Observer, tr *tracer, root int32, clock *sweepClock) []soakTrial {
	return parsweep.MapWith(len(scs), s.workers, s.pool, func(i int, res *crosscheck.Resources) soakTrial {
		var start time.Time
		if clock != nil {
			start = time.Now()
		}
		item := tr.beginItem("crosscheck.RunWithRes", root)
		rep, err := crosscheck.RunWithRes(scs[i], o, res)
		tr.end(item)
		if clock != nil {
			clock.item(i, start)
		}
		return soakTrial{rep: rep, err: err}
	})
}

func (s *soak) rep(tr *tracer, root int32) {
	var clock *sweepClock
	if tr != nil {
		clock = newSweepClock(s.workers)
	}
	s.last = s.sweep(s.scenarios, obs.New(nil), tr, root, clock)
	if clock != nil {
		clock.done()
		s.sweeps = append(s.sweeps, clock)
	}
}

// check demands that every tier of every scenario kept every invariant,
// and that a repetition executed exactly the rules the first one did.
func (s *soak) check() tally {
	var t tally
	s.rules = map[string]int64{}
	for i, tr := range s.last {
		if tr.err != nil {
			t.expect(false, "scenario %d: %v", i, tr.err)
			continue
		}
		t.expect(tr.rep.OK(), "scenario %d (%s): %v", i, s.scenarios[i].Name, tr.rep.Violations())
		for _, e := range tr.rep.Engines {
			s.rules[e.Engine] += e.RuleExecutions
		}
	}
	if s.reps == 0 {
		s.rules0 = s.rules
	} else {
		same := len(s.rules) == len(s.rules0)
		for k, v := range s.rules0 {
			same = same && s.rules[k] == v
		}
		t.expect(same, "soak repetition %d executed rules %v, the first %v", s.reps, s.rules, s.rules0)
	}
	s.reps++
	return t
}

func (s *soak) minTracedReps() int { return s.cfg.tracedReps }

func (s *soak) counts() map[string]float64 {
	out := map[string]float64{}
	for _, e := range crosscheck.AllEngines {
		out["crosscheck.rules."+e] = float64(s.rules[e])
	}
	return out
}

func (s *soak) layers(tr *tracer, m metricSet) tally {
	var t tally
	for k, v := range s.counts() {
		m[k] = v
	}
	lt := layerTotals(tr.snapshot())
	if sc := lt["crosscheck.RunWithRes"]; sc != nil {
		ms := sc.durationsMS()
		m["crosscheck.scenario_p50_ms"] = median(ms)
		m["crosscheck.scenario_p99_ms"] = quantile(ms, 0.99)
	}
	var itemSum, capacity float64
	var tails []float64
	for _, c := range s.sweeps {
		is, cp := c.busy()
		itemSum += is
		capacity += cp
		tails = append(tails, c.tail())
	}
	m["parsweep.busy_ratio.soak"] = itemSum / capacity
	m["parsweep.tail_s"] = median(tails)

	probe := tr.begin("probes", -1)
	defer tr.end(probe)

	// Each tier alone on one worker, over the same scenarios: the tier
	// shares, the msgnet cost per frame, and the rule counts, which must
	// equal what the full runs counted for the same scenarios.
	subset := s.scenarios[:min(s.cfg.tierScenarios, len(s.scenarios))]
	tierSec := map[string]float64{}
	var total float64
	res := crosscheck.NewResources()
	for _, tier := range crosscheck.AllEngines {
		o := obs.New(nil)
		var rules, want int64
		ts := tr.begin("tier "+tier, probe)
		start := time.Now()
		for i, sc := range subset {
			sc.Engines = []string{tier}
			sp := tr.begin("crosscheck.tier."+tier, ts)
			rep, err := crosscheck.RunWithRes(sc, o, res)
			tr.end(sp)
			if err != nil || !rep.OK() {
				t.expect(false, "tier %s scenario %d: %v %v", tier, i, err, rep.Violations())
				continue
			}
			rules += rep.Engines[0].RuleExecutions
			for _, e := range s.last[i].rep.Engines {
				if e.Engine == tier {
					want += e.RuleExecutions
				}
			}
		}
		tierSec[tier] = time.Since(start).Seconds()
		tr.end(ts)
		total += tierSec[tier]
		t.expect(rules == want, "tier %s alone executed %d rules, within the full runs %d", tier, rules, want)
		if tier == crosscheck.EngineMsgnet {
			frames := o.C.MsgSent.Load() + o.C.MsgRecv.Load() + o.C.MsgDropped.Load()
			m["msgnet.ns_per_frame"] = tierSec[tier] * 1e9 / float64(frames)
		}
	}
	for _, tier := range crosscheck.AllEngines {
		m["crosscheck."+tier+"_share"] = tierSec[tier] / total
	}
	// The tiers' one-worker cost, scaled to the full scenario list and
	// spread over the workers, against the untraced repetition time.
	scale := float64(len(s.scenarios)) / float64(len(subset))
	m["crosscheck.unexplained_share"] = 1 - total*scale/(float64(s.workers)*m["rep_s"])

	// Observer overhead: the same subset with the shared observer and with
	// none, alternated twice.
	obsSubset := s.scenarios[:min(s.cfg.obsScenarios, len(s.scenarios))]
	var withObs, without float64
	for r := 0; r < 2; r++ {
		without += timeRep(func() { s.sweep(obsSubset, nil, nil, -1, nil) })
		withObs += timeRep(func() { s.sweep(obsSubset, obs.New(nil), nil, -1, nil) })
	}
	m["obs.overhead_ratio"] = withObs / without
	return t
}
