// Package crosscheck is a differential conformance harness: it executes
// one seeded scenario through every execution tier of the repository —
// the state-reading simulator (internal/statemodel), the discrete-event
// message-passing simulation (internal/cst over internal/msgnet), and the
// live tier's sharded engine (internal/runtime) — and evaluates the paper's
// invariants continuously in each:
//
//   - mutual inclusion: 1 ≤ #privileged ≤ 2 after convergence (Theorems
//     1 and 3, checked via internal/verify's census);
//   - graceful handover: no zero-token instant outside a settle window
//     (subsumed by the lower census bound);
//   - convergence within the bound: in the state-reading engine the
//     settle window after a perturbation is exactly the paper's O(n²)
//     step bound (core.ConvergenceStepBound), so a census violation past
//     it is a convergence failure;
//   - the link model: each communication link transmits at most one
//     message per direction at a time, checked from the outside via the
//     network tap (LinkMonitor), duplicates included.
//
// The differential part: a correct system yields the verdict "no
// violations" in every tier. A model-gap bug — an engine more permissive
// than the model the theorems are proved against — makes exactly one tier
// diverge, which is how the duplicated-delivery bug in msgnet.send was
// pinned (see testdata/repros/). On a violation the harness auto-shrinks
// the scenario to a minimal reproduction (Shrink) and writes it as a
// regression fixture that go test replays forever.
//
// The differential verdict means something only if every tier reads the
// fault script the same way, so internal/scenario owns its vocabulary:
// Validate defers the shared fields to scenario.Scenario.Validate, the
// msgnet tier builds its ring with scenario.NewRing and applies each
// fault with scenario.Apply exactly as scenario.Run does, every tier
// starts from scenario.InitialConfig, and the live tier, which
// pre-schedules its faults, picks state-fault victims among the members
// scenario.Replay reports at each fault's instant.
package crosscheck

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/daemon"
	"ssrmin/internal/fault"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
	"ssrmin/internal/scenario"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/verify"
)

// Engine names accepted in Scenario.Engines.
const (
	// EngineState is the state-reading simulator (internal/statemodel);
	// its time axis is the daemon step index.
	EngineState = "state"
	// EngineMsgnet is the discrete-event message-passing simulation
	// (internal/cst over internal/msgnet); its time axis is simulated
	// seconds.
	EngineMsgnet = "msgnet"
	// EngineLive is the live tier's sharded engine (internal/runtime) in
	// fast virtual time; its time axis is virtual seconds, one per
	// simulated second of EngineMsgnet.
	EngineLive = "live"
)

// AllEngines lists every execution tier, in checking order.
var AllEngines = []string{EngineState, EngineMsgnet, EngineLive}

// Scenario is one seeded cross-engine experiment. The zero value is not
// runnable; Validate fills defaults.
type Scenario struct {
	// Name labels the scenario in reports and repro fixtures.
	Name string `json:"name"`
	// N is the ring size (≥ 3); K the Dijkstra counter space (default N+1).
	N int `json:"n"`
	K int `json:"k,omitempty"`
	// Seed fixes all randomness in every engine.
	Seed int64 `json:"seed"`
	// Horizon is the simulated duration in seconds (msgnet and live).
	Horizon float64 `json:"horizon"`
	// Steps is the state-reading engine's transition budget; the default
	// is twice the paper's convergence bound.
	Steps int `json:"steps,omitempty"`
	// Daemon schedules the state-reading engine: "central-random"
	// (default), "synchronous", or "distributed".
	Daemon string `json:"daemon,omitempty"`
	// Link configures every ring link of the message-passing engines.
	// Dup and Corrupt apply to msgnet only (the live engine's links
	// neither duplicate nor corrupt); Loss applies to msgnet and live.
	// Every corrupted frame counts as a transient fault and opens a
	// Settle window — under continuous corruption the census invariant is
	// only required to hold in corruption-free stretches longer than
	// Settle.
	Link scenario.Link `json:"link"`
	// Refresh is the CST announcement period (default 5×delay).
	Refresh float64 `json:"refresh,omitempty"`
	// RandomStart draws an arbitrary initial configuration from the seed;
	// all engines start from the same configuration.
	RandomStart bool `json:"randomStart,omitempty"`
	// IncoherentCaches seeds neighbor caches with random states (msgnet
	// and live engines).
	IncoherentCaches bool `json:"incoherentCaches,omitempty"`
	// Settle is the census grace window, in simulated seconds, after t=0
	// (when the start is perturbed) and after every fault. Default
	// Horizon/2. The state engine uses the paper's step bound instead.
	Settle float64 `json:"settle,omitempty"`
	// MaxSeparation is the settled bound on the ring distance between the
	// primary and the secondary token holder (default 1: in a legitimate
	// configuration the holders are the same process or neighbors).
	MaxSeparation int `json:"maxSeparation,omitempty"`
	// Faults is the timed fault script, validated and applied by
	// internal/scenario. "states" applies to every engine, to the ring's
	// members at that instant; the state tier keeps its fixed ring and
	// ignores every other type. The msgnet tier applies all of them;
	// the live tier applies "states", "join", "leave" and "splice", its
	// links have no cut or loss gate and its caches no injection.
	Faults []scenario.Fault `json:"faults,omitempty"`
	// Engines selects the tiers to run (default all three).
	Engines []string `json:"engines,omitempty"`
	// LiveWorkers is the sharded engine's worker-loop count (0 =
	// GOMAXPROCS, clamped to [1, n]).
	LiveWorkers int `json:"liveWorkers,omitempty"`
}

// Validate checks the scenario and fills defaults in place. The fields
// it shares with internal/scenario — ring size, counter space, horizon,
// link, refresh, start and fault script — are checked and defaulted by
// scenario.Scenario.Validate, so every executor reads a script the same
// way; the rest are the harness's own.
func (s *Scenario) Validate() error {
	sh := s.script()
	if err := sh.Validate(); err != nil {
		return fmt.Errorf("crosscheck: %w", err)
	}
	s.K, s.Link, s.Refresh, s.Faults = sh.K, sh.Link, sh.Refresh, sh.Faults
	if s.Steps == 0 {
		s.Steps = 2 * core.New(s.N, s.K).ConvergenceStepBound()
	}
	if s.Steps < 1 {
		return fmt.Errorf("crosscheck %q: steps must be positive", s.Name)
	}
	switch s.Daemon {
	case "":
		s.Daemon = "central-random"
	case "central-random", "synchronous", "distributed":
	default:
		return fmt.Errorf("crosscheck %q: unknown daemon %q", s.Name, s.Daemon)
	}
	if s.Settle == 0 {
		s.Settle = s.Horizon / 2
	}
	if !(s.Settle >= 0 && s.Settle <= s.Horizon) {
		return fmt.Errorf("crosscheck %q: settle %v outside (0, horizon]", s.Name, s.Settle)
	}
	if s.MaxSeparation == 0 {
		s.MaxSeparation = 1
	}
	if s.MaxSeparation < 0 {
		return fmt.Errorf("crosscheck %q: maxSeparation must be positive", s.Name)
	}
	if s.LiveWorkers < 0 {
		return fmt.Errorf("crosscheck %q: liveWorkers %d must not be negative", s.Name, s.LiveWorkers)
	}
	if len(s.Engines) == 0 {
		s.Engines = append([]string(nil), AllEngines...)
	}
	for _, e := range s.Engines {
		switch e {
		case EngineState, EngineMsgnet, EngineLive:
		default:
			return fmt.Errorf("crosscheck %q: unknown engine %q", s.Name, e)
		}
	}
	if slices.Contains(s.Engines, EngineLive) {
		if err := liveTimings(s.Link.Delay, s.Link.Jitter, s.Refresh); err != nil {
			return fmt.Errorf("crosscheck %q: %w", s.Name, err)
		}
	}
	return nil
}

// script is the part of the scenario that internal/scenario defines:
// ring, counter space, horizon, link, refresh, start and fault script.
func (s Scenario) script() scenario.Scenario {
	return scenario.Scenario{
		Name: s.Name, N: s.N, K: s.K, Horizon: s.Horizon, Link: s.Link, Refresh: s.Refresh,
		Seed: s.Seed, RandomStart: s.RandomStart, IncoherentCaches: s.IncoherentCaches, Faults: s.Faults,
	}
}

// start returns the algorithm and the shared starting configuration of
// every engine, drawn from the scenario seed.
func (s Scenario) start() (*core.Algorithm, statemodel.Config[core.State]) {
	alg := core.New(s.N, s.K)
	return alg, scenario.InitialConfig(s.script(), alg.InitialLegitimate(), alg.RandomState)
}

// perturbedStart reports whether the initial configuration itself needs a
// settle window.
func (s Scenario) perturbedStart() bool { return s.RandomStart || s.IncoherentCaches }

// Violation is one invariant breach in one engine.
type Violation struct {
	// Engine is the tier that broke the invariant.
	Engine string `json:"engine"`
	// Kind is "census" (token count left [1,2] after settling), "link"
	// (one-message-per-direction rule broken), or "deadlock" (the state
	// engine ran out of enabled moves — Lemma 4 says it never should).
	Kind string `json:"kind"`
	// At is the instant on the engine's native time axis.
	At float64 `json:"at"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s/%s] t=%v: %s", v.Engine, v.Kind, v.At, v.Detail)
}

// EngineResult is one tier's verdict.
type EngineResult struct {
	// Engine names the tier.
	Engine string `json:"engine"`
	// Observations counts census observations fed to the checker.
	Observations int `json:"observations"`
	// MinCensus and MaxCensus are the extreme censuses over the whole run
	// (settle windows included).
	MinCensus int `json:"minCensus"`
	MaxCensus int `json:"maxCensus"`
	// LastBad is the last instant the census left [1,2] anywhere in the
	// run, or -1; comparing it against the settle deadline is the
	// convergence measure.
	LastBad float64 `json:"lastBad"`
	// RuleExecutions counts guarded-command executions in this tier.
	RuleExecutions int64 `json:"ruleExecutions"`
	// SeparationObs counts the instants the separation invariant was
	// evaluable (exactly one primary and one secondary holder).
	SeparationObs int `json:"separationObs,omitempty"`
	// MaxSeparation is the largest settled ring distance observed between
	// the primary and secondary token holders, or -1 if never evaluable
	// outside a settle window.
	MaxSeparation int `json:"maxSeparation,omitempty"`
	// Violations lists every invariant breach.
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether the tier's run satisfied every invariant.
func (r EngineResult) OK() bool { return len(r.Violations) == 0 }

// Report is the cross-engine outcome of one scenario.
type Report struct {
	// Scenario is the validated scenario that ran.
	Scenario Scenario `json:"scenario"`
	// Engines holds one verdict per executed tier, in execution order.
	Engines []EngineResult `json:"engines"`
}

// Violations aggregates every engine's violations.
func (r Report) Violations() []Violation {
	var out []Violation
	for _, e := range r.Engines {
		out = append(out, e.Violations...)
	}
	return out
}

// OK reports whether every tier agreed that every invariant held.
func (r Report) OK() bool { return len(r.Violations()) == 0 }

// Diff names the tiers whose verdicts disagree with the majority outcome
// — the differential signal. An empty string means all tiers agree; a
// non-empty string names the divergent engines (a model-gap bug makes
// exactly the buggy tier diverge).
func (r Report) Diff() string {
	var ok, bad []string
	for _, e := range r.Engines {
		if e.OK() {
			ok = append(ok, e.Engine)
		} else {
			bad = append(bad, e.Engine)
		}
	}
	if len(ok) == 0 || len(bad) == 0 {
		return ""
	}
	return fmt.Sprintf("engines %v violate invariants that engines %v preserve", bad, ok)
}

// Run validates sc and executes it through every selected engine.
func Run(sc Scenario) (Report, error) { return RunWithObs(sc, nil) }

// RunWithObs is Run with an observability hook: o (which may be shared
// across concurrent runs) receives per-engine rule/message counters and
// events. o's sink sees every event as it happens; the scenario counts
// into a private observer that is merged into o once when the run ends,
// so o's counters advance once per scenario and its HandoverGap holds the
// gaps within each scenario, never one across two.
func RunWithObs(sc Scenario, o *obs.Observer) (Report, error) {
	return RunWithRes(sc, o, nil)
}

// Resources is the reusable per-worker state of a scenario sweep: one
// worker thread hands the same Resources to every scenario it executes,
// so steady-state sweeps allocate next to nothing. The zero value is
// NOT ready; use NewResources. A Resources must not be shared by
// concurrently executing runs (parsweep.MapWith guarantees this when
// the sweep's Pool builds them).
type Resources struct {
	// Arena is the message-passing engine's event arena, reset (not
	// reallocated) for each scenario's network.
	Arena *msgnet.Arena[core.State]
}

// NewResources builds an empty resource set; parsweep.Pool-compatible.
func NewResources() *Resources {
	return &Resources{Arena: msgnet.NewArena[core.State]()}
}

// RunWithRes is RunWithObs with reusable per-worker resources; res may
// be nil, in which case each engine allocates privately (the RunWithObs
// behaviour). Resource reuse cannot change results: the event arena is
// reset between runs and the engines' RNG streams depend only on the
// scenario seed — the msgnet engine differential test pins this. The
// private observer keeps sweep workers from contending on o's counters.
func RunWithRes(sc Scenario, o *obs.Observer, res *Resources) (Report, error) {
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	if o != nil {
		shared := o
		o = obs.New(shared.LiveSink())
		defer shared.Merge(o)
	}
	rep := Report{Scenario: sc}
	for _, e := range sc.Engines {
		switch e {
		case EngineState:
			rep.Engines = append(rep.Engines, runState(sc, o))
		case EngineMsgnet:
			rep.Engines = append(rep.Engines, runMsgnet(sc, o, res))
		case EngineLive:
			rep.Engines = append(rep.Engines, runLiveEngine(sc, o))
		}
	}
	return rep, nil
}

func makeDaemon(sc Scenario) statemodel.Daemon {
	switch sc.Daemon {
	case "synchronous":
		return daemon.Synchronous{}
	case "distributed":
		return daemon.NewRandomSubset(rand.New(rand.NewSource(sc.Seed+2)), 0.5)
	default:
		return daemon.NewCentralRandom(rand.New(rand.NewSource(sc.Seed + 2)))
	}
}

// runState executes the scenario in the state-reading model. Faults of
// type "states" are injected at the step index proportional to their
// scheduled time; the settle window after a perturbation is the paper's
// convergence bound in steps, so a census violation past it doubles as a
// violation of the O(n²) convergence theorem.
func runState(sc Scenario, o *obs.Observer) EngineResult {
	alg, cfg := sc.start()
	d := makeDaemon(sc)
	bound := float64(alg.ConvergenceStepBound())
	chk, sep := newMonitors(EngineState, bound, sc.MaxSeparation)
	if sc.perturbedStart() {
		chk.perturb(0)
	}
	inj := fault.NewInjector(sc.Seed + 1)

	// A step changes the views of its movers and their ring neighbours
	// only; the caller marks those (or every node after a fault).
	h := newHolderTracker(sc.N)
	members := make([]int, sc.N)
	for i := range members {
		members[i] = i
	}
	h.setMembers(members)
	var cur statemodel.Config[core.State]
	eval := func(i int) uint8 { return holderBits(cur.View(i)) }
	observe := func(t float64, c statemodel.Config[core.State]) {
		cur = c
		observeTracked(t, h, eval, chk, sep)
		if hooks.state != nil {
			hooks.state(h, c)
		}
	}

	res := EngineResult{Engine: EngineState}
	globalStep := 0
	observe(0, cfg)

	runTo := func(target int) {
		if target <= globalStep {
			return
		}
		sim := statemodel.NewSimulator[core.State](alg, d, cfg)
		if o != nil {
			sim.Obs = o
		}
		base := globalStep
		sim.OnStep = func(step int, moves []statemodel.Move, c statemodel.Config[core.State]) {
			res.RuleExecutions += int64(len(moves))
			for _, m := range moves {
				h.mark(m.Process)
				h.mark((m.Process + sc.N - 1) % sc.N)
				h.mark((m.Process + 1) % sc.N)
			}
			observe(float64(base+step), c)
		}
		done := sim.Run(target - globalStep)
		globalStep += done
		cfg = sim.Config()
		if done < target-base {
			res.Violations = append(res.Violations, Violation{
				Engine: EngineState, Kind: "deadlock", At: float64(globalStep),
				Detail: fmt.Sprintf("no enabled process after %d steps (Lemma 4 violated)", globalStep),
			})
		}
	}

	for _, f := range scenario.Ordered(sc.Faults) {
		if f.Type != "states" {
			continue
		}
		step := int(f.At / sc.Horizon * float64(sc.Steps))
		runTo(step)
		fault.CorruptConfig[core.State](inj, cfg, f.Count, alg.RandomState)
		chk.perturb(float64(globalStep))
		h.markAll()
		observe(float64(globalStep), cfg)
	}
	runTo(sc.Steps)

	chk.finish(&res)
	sep.finish(&res)
	return res
}

// runMsgnet executes the scenario as a CST ring over the discrete-event
// network, with the census observed after every event and the link model
// checked from the outside by a LinkMonitor on the network tap.
func runMsgnet(sc Scenario, o *obs.Observer, shared *Resources) EngineResult {
	alg, init := sc.start()
	script := sc.script()
	var arena *msgnet.Arena[core.State]
	if shared != nil {
		arena = shared.Arena
	}
	ring := scenario.NewRing[core.State](script, alg, init, alg.RandomState, arena)
	if o != nil {
		ring.Net.Obs = o
		for i, nd := range ring.Nodes {
			nd.OnExecute = func(now msgnet.Time, rule int) {
				o.RuleFired(float64(now), i, rule)
			}
		}
	}

	mon := NewLinkMonitor()
	chk, sep := newMonitors(EngineMsgnet, sc.Settle, sc.MaxSeparation)
	if sc.perturbedStart() {
		chk.perturb(0)
	}
	// An event changes the view of its target node only: a delivery
	// refreshes one cache slot and may fire one rule there, a timer may
	// fire one rule. Faults and churn mark every node.
	h := newHolderTracker(len(ring.Nodes))
	eval := func(i int) uint8 {
		if !ring.Active(i) {
			return 0
		}
		return holderBits(ring.Nodes[i].View())
	}
	// A corrupted frame is a transient fault the moment it lands in a
	// neighbor cache: self-stabilization promises recovery after faults
	// stop, not closure while they keep arriving, so each corruption opens
	// a settle window like any scheduled fault. The link monitor is not
	// affected — the one-message-per-direction rule holds unconditionally.
	ring.Net.Tap = func(e msgnet.TapEvent) {
		switch e.Kind {
		case msgnet.TapDeliver, msgnet.TapTimer:
			h.mark(e.Node)
		case msgnet.TapCorrupted:
			chk.perturb(float64(e.At))
		}
		mon.Tap(e)
	}
	// Ring membership only changes at churn faults, so the order is cached
	// between them rather than re-walked on every event.
	membersStale := true
	ring.Net.Observer = func(now msgnet.Time) {
		if membersStale {
			h.setMembers(ring.Members())
			membersStale = false
		}
		observeTracked(float64(now), h, eval, chk, sep)
		if hooks.msgnet != nil {
			hooks.msgnet(h, ring)
		}
	}

	inj := fault.NewInjector(sc.Seed + 1)
	for _, f := range scenario.Ordered(sc.Faults) {
		ring.Net.Run(msgnet.Time(f.At))
		hit := scenario.Apply(script, ring, f, inj, alg.RandomState)
		if hooks.injected != nil && hit != nil {
			hooks.injected(EngineMsgnet, f.At, hit)
		}
		if f.IsChurn() {
			membersStale = true
		}
		h.markAll()
		chk.perturb(f.At)
	}
	ring.Net.Run(msgnet.Time(sc.Horizon))

	res := EngineResult{Engine: EngineMsgnet, RuleExecutions: int64(ring.RuleExecutions())}
	res.Violations = append(res.Violations, mon.Finish()...)
	chk.finish(&res)
	sep.finish(&res)
	return res
}

// runLiveEngine executes the scenario on the live tier: the sharded event
// engine in fast virtual time. Faults are pre-scheduled at their exact
// simulated instants, the census is observed at every epoch boundary (a
// true instantaneous cut), and wall-clock speed is whatever the CPU
// delivers — which is what lets the harness crosscheck rings of 100k+
// nodes.
func runLiveEngine(sc Scenario, o *obs.Observer) EngineResult {
	alg, init := sc.start()
	spare, _, _ := scenario.ChurnPlan(sc.N, sc.Faults) // plan validated in Validate
	eng := runtime.NewEngine[core.State](alg, init, runtime.Options[core.State]{
		Delay:          simDur(sc.Link.Delay),
		Jitter:         simDur(sc.Link.Jitter),
		LossProb:       sc.Link.Loss,
		Refresh:        simDur(sc.Refresh),
		Seed:           sc.Seed,
		CoherentCaches: !sc.IncoherentCaches,
		RandomState:    alg.RandomState,
		Workers:        sc.LiveWorkers,
		Spare:          spare,
	})
	// The recording predicate is core.HasToken; installed even without an
	// observer, it lets the census sampling below read the shard-local
	// accumulators and the holders read the recorded bits, instead of
	// rescanning every node each Delay tick.
	lh := newLiveHolders(sc.N + spare)
	eng.SetPrivilegeCallback(lh.holds, nil)
	if o != nil {
		eng.SetObserver(o, nil)
	}

	chk, sep := newMonitors(EngineLive, sc.Settle, sc.MaxSeparation)
	if sc.perturbedStart() {
		chk.perturb(0)
	}
	// Pre-schedule the whole fault script at exact virtual instants, with
	// the draws of the msgnet tier's injector: a states fault picks its
	// victims among the members the churn plan has at that instant, then
	// draws their states; a join draws the joiner's state. The engine has
	// no cache injection, so a caches fault makes its draws and discards
	// them, keeping later faults on the msgnet tier's stream.
	inj := fault.NewInjector(sc.Seed + 1)
	scenario.Replay(sc.N, sc.Faults, func(f scenario.Fault, members []int) {
		switch f.Type {
		case "caches":
			for range f.Count {
				inj.PickCache(len(members))
				alg.RandomState(inj.Rand())
			}
		case "states":
			hit := inj.Pick(len(members), f.Count)
			for j, i := range hit {
				hit[j] = members[i]
				eng.ScheduleInject(f.At, hit[j], alg.RandomState(inj.Rand()))
			}
			if hooks.injected != nil {
				hooks.injected(EngineLive, f.At, hit)
			}
		case "join":
			eng.ScheduleJoin(f.At, f.Node, alg.RandomState(inj.Rand()))
		case "leave":
			eng.ScheduleLeave(f.At, f.Node)
		case "splice":
			eng.ScheduleSplice(f.At, f.Node, f.Count)
		}
	})
	faults := scenario.Ordered(sc.Faults)

	var members []int
	membersStale := true
	fi, ci := 0, 0
	for now := eng.Now(); now < sc.Horizon; {
		eng.RunUntil(now + sc.Link.Delay)
		now = eng.Now()
		for fi < len(faults) && faults[fi].At <= now {
			chk.perturb(faults[fi].At)
			fi++
		}
		// The engine applies a churn op at the start of the first epoch
		// whose horizon passes the op's instant, so by now it has applied
		// exactly the ops before now.
		for ci < len(faults) && faults[ci].At < now {
			if faults[ci].IsChurn() {
				membersStale = true
			}
			ci++
		}
		census, _ := eng.TrackedCensus()
		chk.observe(now, census)
		if membersStale {
			members = eng.Members()
			membersStale = false
		}
		lh.observe(now, members, sep)
		if hooks.live != nil {
			hooks.live(lh, members, eng)
		}
	}
	eng.Stop()

	res := EngineResult{Engine: EngineLive, RuleExecutions: eng.RuleExecutions()}
	chk.finish(&res)
	sep.finish(&res)
	return res
}

// liveTimings checks that the live engine's nanosecond clock can hold the
// link timings as simDur converts them: none may overflow time.Duration,
// and none but a zero jitter may round to 0 ns.
func liveTimings(delay, jitter, refresh float64) error {
	for _, v := range []struct {
		name string
		x    float64
	}{{"link delay", delay}, {"link jitter", jitter}, {"refresh", refresh}} {
		switch {
		case v.x*float64(time.Second) >= math.MaxInt64:
			return fmt.Errorf("%s %v s overflows the live engine's clock", v.name, v.x)
		case v.x != 0 && simDur(v.x) == 0:
			return fmt.Errorf("%s %v s rounds to 0 ns on the live engine's clock", v.name, v.x)
		}
	}
	return nil
}

// simDur converts simulated seconds to the engine's Duration options —
// one virtual second per simulated second.
func simDur(simSeconds float64) time.Duration {
	return time.Duration(simSeconds * float64(time.Second))
}

// censusChecker evaluates the census invariant over one engine's run:
// outside the settle windows (after t=0 when the start is perturbed, and
// after every fault) the census must stay within SSRmin's [1,2] bounds.
// The windows live in a shared settleWindows so companion monitors (the
// separation monitor) grace exactly the same instants, deadline included.
type censusChecker struct {
	engine     string
	windows    *settleWindows
	bounds     verify.CSBounds
	violations []Violation
	truncated  int
	observed   int
	minC, maxC int
	lastBad    float64
}

// newMonitors returns one engine's census checker and separation monitor
// over shared settle windows.
func newMonitors(engine string, grace float64, maxSep int) (*censusChecker, *SeparationMonitor) {
	chk := newCensusChecker(engine, grace)
	sep := NewSeparationMonitor(engine, maxSep, chk.windows)
	if hooks.monitors != nil {
		hooks.monitors(chk, sep)
	}
	return chk, sep
}

// hooks are test seams, all nil outside tests: monitors adjusts every
// engine's checkers as they are built; state and msgnet see the holder
// tracker after every tracked observation together with the configuration
// or ring it summarizes; live sees the recorded holder bits and the
// membership the live tier used at every tick, with the engine they
// describe; injected sees the victims of every states fault in the
// message-passing tiers.
var hooks struct {
	monitors func(*censusChecker, *SeparationMonitor)
	state    func(*holderTracker, statemodel.Config[core.State])
	msgnet   func(*holderTracker, *cst.Ring[core.State])
	live     func(*liveHolders, []int, *runtime.Engine[core.State])
	injected func(engine string, at float64, nodes []int)
}

func newCensusChecker(engine string, grace float64) *censusChecker {
	return &censusChecker{
		engine:  engine,
		windows: &settleWindows{grace: grace},
		bounds:  verify.SSRminBounds,
		minC:    -1,
		maxC:    -1,
		lastBad: -1,
	}
}

// perturb opens a settle window at instant t.
func (c *censusChecker) perturb(t float64) { c.windows.perturb(t) }

// graced reports whether instant t falls inside a settle window.
func (c *censusChecker) graced(t float64) bool { return c.windows.graced(t) }

func (c *censusChecker) observe(t float64, census int) {
	c.observed++
	if c.minC == -1 || census < c.minC {
		c.minC = census
	}
	if census > c.maxC {
		c.maxC = census
	}
	if c.bounds.Check(census) {
		return
	}
	c.lastBad = t
	if c.graced(t) {
		return
	}
	if len(c.violations) >= maxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{
		Engine: c.engine, Kind: "census", At: t,
		Detail: fmt.Sprintf("%d privileged processes, outside %v (settled)", census, c.bounds),
	})
}

// finish folds the checker's outcome into res.
func (c *censusChecker) finish(res *EngineResult) {
	res.Observations = c.observed
	res.MinCensus = c.minC
	res.MaxCensus = c.maxC
	res.LastBad = c.lastBad
	res.Violations = append(res.Violations, c.violations...)
	if c.truncated > 0 {
		res.Violations = append(res.Violations, Violation{
			Engine: c.engine, Kind: "census", At: -1,
			Detail: fmt.Sprintf("%d further census violations truncated", c.truncated),
		})
	}
}
