// Package ssrmin is a from-scratch Go implementation of the
// self-stabilizing token circulation with graceful handover of
// Kakugawa, Kamei and Katayama ("A self-stabilizing token circulation with
// graceful handover on bidirectional ring networks", IJNC 12(1), 2022;
// IPDPSW 2021).
//
// SSRmin solves the mutual inclusion problem — at least one process is
// privileged at every instant — on bidirectional rings, by circulating a
// primary and a secondary token like an inchworm on top of Dijkstra's
// K-state ring. Its token predicates are model gap tolerant: after the
// cached sensornet transform (CST), the guarantee "1 ≤ privileged ≤ 2"
// survives in asynchronous message-passing networks, where plain token
// rings pass through instants with no token at all.
//
// The package offers four execution vehicles over one algorithm core:
//
//   - Simulation: the state-reading/composite-atomicity model of the
//     paper's proofs, under pluggable daemons (schedulers).
//   - MPSimulation: a deterministic discrete-event simulation of the
//     CST-transformed algorithm over lossy, delayed message links.
//   - LiveRing: the live deployment — a sharded event-loop engine paced
//     against the wall clock — for applications such as the camera-network
//     examples.
//   - TCPRing: the algorithm as real network services over TCP sockets
//     (see also cmd/ssrmin-node for multi-process/multi-machine rings).
//
// MultiSimulation composes m independent instances into a (m, 2m)-
// critical-section system. The exhaustive model checker (used by the test
// suite) and the experiment harness that regenerates every figure of the
// paper live in cmd/ and internal/.
//
// # Options
//
// All three in-process constructors — NewSimulation, NewMPSimulation and
// NewLiveRing — accept one shared vocabulary of functional options:
//
//	sim  := ssrmin.NewSimulation(5, ssrmin.WithK(7), ssrmin.WithRecording())
//	mp   := ssrmin.NewMPSimulation(5, ssrmin.WithSeed(1), ssrmin.WithLoss(0.1))
//	ring := ssrmin.NewLiveRing(5, ssrmin.WithSeed(1), ssrmin.WithDelay(2*time.Millisecond))
//
// Options that do not apply to a vehicle are ignored by it (WithDaemon
// only schedules the state-reading simulation; WithHold only delays rule
// execution in the message-passing simulation). WithObserver and WithSink
// attach the instrumentation layer of internal/obs to any vehicle; see
// Observer below.
package ssrmin

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/netring"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/trace"
	"ssrmin/internal/verify"
)

// State is the local state of an SSRmin process: the Dijkstra counter X
// and the rts/tra handshake bits.
type State = core.State

// Config is a configuration: one State per process.
type Config = statemodel.Config[core.State]

// View is a process's read set: its own and its ring neighbors' states.
type View = statemodel.View[core.State]

// Move identifies a process executing a rule.
type Move = statemodel.Move

// Algorithm is an SSRmin instance (ring size n, counter space K).
type Algorithm = core.Algorithm

// Daemon schedules enabled processes; see the With*Daemon options.
type Daemon = statemodel.Daemon

// TokenCount is a census of primary/secondary/privileged processes.
type TokenCount = verify.TokenCount

// New returns an SSRmin algorithm instance with n ≥ 3 processes and
// counter space K > n.
func New(n, k int) *Algorithm { return core.New(n, k) }

// HasPrimary, HasSecondary and HasToken are the token conditions of
// Algorithm 3, re-exported for use with the Holders/Census APIs.
var (
	HasPrimary   = core.HasPrimary
	HasSecondary = core.HasSecondary
	HasToken     = core.HasToken
)

// RandomConfig draws a uniformly random configuration for a.
func RandomConfig(a *Algorithm, rng *rand.Rand) Config {
	cfg := make(Config, a.N())
	for i := range cfg {
		cfg[i] = a.RandomState(rng)
	}
	return cfg
}

// Count returns the token census of cfg.
func Count(cfg Config) TokenCount { return verify.Count(cfg) }

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

// Observer is the instrumentation hub of internal/obs: lock-free counters,
// fixed-bucket histograms and an optional structured event sink. Create
// one with NewObserver, install it with WithObserver (or let WithSink
// create one implicitly), and read it back via the Observer method of the
// vehicle. Its WriteText/Handler methods serve the /metrics text format.
type Observer = obs.Observer

// Sink receives one Event per instrumented occurrence; see NewJSONLSink.
type Sink = obs.Sink

// Event is one structured observability record.
type Event = obs.Event

// EventKind discriminates Event records (rule fired, token moved, ...).
type EventKind = obs.Kind

// JSONLSink writes events as JSON Lines; create one with NewJSONLSink.
type JSONLSink = obs.JSONL

// NewObserver returns an Observer forwarding events to sink. A nil sink
// keeps counters and histograms live but emits no events.
func NewObserver(sink Sink) *Observer { return obs.New(sink) }

// NewJSONLSink returns a Sink encoding each event as one JSON line on w.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONL(w) }

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

// Option configures NewSimulation, NewMPSimulation or NewLiveRing. All
// three constructors share one vocabulary; options irrelevant to a
// vehicle are ignored by it.
type Option interface{ apply(*options) }

type optionFunc func(*options)

func (f optionFunc) apply(c *options) { f(c) }

// options is the merged configuration of all three vehicles.
type options struct {
	k       int
	daemon  Daemon
	initial Config
	record  bool

	seed    int64
	seedSet bool

	delay, jitter, refresh, hold time.Duration
	lossProb                     float64
	incoherent                   bool

	workers int

	obsv *obs.Observer
	sink obs.Sink
}

// observer resolves the configured instrumentation: an explicit observer
// wins; a bare sink gets a fresh observer; neither means nil (all hooks
// compiled out of the hot paths by nil checks).
func (c *options) observer() *obs.Observer {
	if c.obsv == nil {
		if c.sink == nil {
			return nil
		}
		c.obsv = obs.New(c.sink)
	} else if c.sink != nil {
		c.obsv.SetSink(c.sink)
	}
	return c.obsv
}

func (c *options) seedOr(def int64) int64 {
	if c.seedSet {
		return c.seed
	}
	return def
}

// WithK sets the counter space (default n+1). WithK(0) keeps the
// default; any other K ≤ n panics in the constructor (the algorithm
// requires K > n).
func WithK(k int) Option {
	return optionFunc(func(c *options) {
		if k != 0 {
			c.k = k
		}
	})
}

// WithDaemon installs a custom scheduler (state-reading simulation only).
func WithDaemon(d Daemon) Option { return optionFunc(func(c *options) { c.daemon = d }) }

// WithInitial sets the initial configuration (default: the canonical
// legitimate configuration with both tokens at P0).
func WithInitial(cfg Config) Option {
	return optionFunc(func(c *options) { c.initial = cfg.Clone() })
}

// WithRecording enables trace capture for RenderTrace/RenderTokens
// (state-reading simulation only).
func WithRecording() Option { return optionFunc(func(c *options) { c.record = true }) }

// WithSeed drives all randomness of the vehicle: the default central
// daemon of NewSimulation (default seed 1), and the link delays, jitter
// and loss draws of NewMPSimulation and NewLiveRing (default seed 0).
func WithSeed(seed int64) Option {
	return optionFunc(func(c *options) { c.seed = seed; c.seedSet = true })
}

// WithDelay sets the base link delay (message-passing and live vehicles).
// Defaults: 10ms simulated for NewMPSimulation, 1ms wall-clock for
// NewLiveRing.
func WithDelay(d time.Duration) Option {
	return optionFunc(func(c *options) { c.delay = d })
}

// WithJitter sets the uniform extra delay bound. Defaults: Delay/5
// simulated for NewMPSimulation, 200µs wall-clock for NewLiveRing.
func WithJitter(d time.Duration) Option {
	return optionFunc(func(c *options) { c.jitter = d })
}

// WithRefresh sets the periodic announcement interval. Defaults: 5×Delay
// simulated for NewMPSimulation, 5ms wall-clock for NewLiveRing.
func WithRefresh(d time.Duration) Option {
	return optionFunc(func(c *options) { c.refresh = d })
}

// WithHold sets the critical-section dwell before executing an enabled
// rule (message-passing vehicle only).
func WithHold(d time.Duration) Option {
	return optionFunc(func(c *options) { c.hold = d })
}

// WithLoss sets the per-message loss probability.
func WithLoss(p float64) Option { return optionFunc(func(c *options) { c.lossProb = p }) }

// WithIncoherentCaches seeds neighbor caches with arbitrary states instead
// of the neighbors' true states — Theorem-4 style adversarial starts.
func WithIncoherentCaches() Option {
	return optionFunc(func(c *options) { c.incoherent = true })
}

// WithWorkers sets the worker-loop count of the live tier's sharded
// event engine (default GOMAXPROCS, clamped to [1, n]). The execution is
// deterministic for a fixed seed regardless of the worker count. Ignored
// by the other vehicles.
func WithWorkers(w int) Option {
	return optionFunc(func(c *options) { c.workers = w })
}

// WithObserver installs o as the vehicle's instrumentation hub. The
// vehicle feeds o's counters, histograms and sink; read it back with the
// vehicle's Observer method.
func WithObserver(o *Observer) Option {
	return optionFunc(func(c *options) { c.obsv = o })
}

// WithSink attaches s to the vehicle's observer, creating a fresh
// observer when none was installed with WithObserver.
func WithSink(s Sink) Option { return optionFunc(func(c *options) { c.sink = s }) }

// CentralDaemon activates one random enabled process per step.
func CentralDaemon(seed int64) Daemon {
	return daemon.NewCentralRandom(rand.New(rand.NewSource(seed)))
}

// SynchronousDaemon activates every enabled process each step.
func SynchronousDaemon() Daemon { return daemon.Synchronous{} }

// DistributedDaemon activates each enabled process with probability p.
func DistributedDaemon(seed int64, p float64) Daemon {
	return daemon.NewRandomSubset(rand.New(rand.NewSource(seed)), p)
}

// AdversarialQuietDaemon prefers the non-Dijkstra rules (1, 3, 5),
// delaying real token progress as long as Lemma 5 permits.
func AdversarialQuietDaemon(seed int64) Daemon {
	return daemon.NewRuleBiased(rand.New(rand.NewSource(seed)),
		core.RuleReadySecondary, core.RuleRecvSecondary, core.RuleFixNoG)
}

// StarvingDaemon never schedules the victim processes unless they are the
// only enabled ones — an unfairness witness.
func StarvingDaemon(seed int64, victims ...int) Daemon {
	return daemon.NewStarver(rand.New(rand.NewSource(seed)), victims...)
}

// ParseDaemon builds a daemon from its registry name — one of
// DaemonNames() — sharing the registry used by the cmd/ flag parsing:
// "central", "sync", "distributed", "quiet" or "starve".
func ParseDaemon(name string, seed int64, p float64) (Daemon, error) {
	return cliconf.ParseDaemon(name, seed, p)
}

// DaemonNames lists the names ParseDaemon accepts.
func DaemonNames() []string { return cliconf.DaemonNames() }

// ---------------------------------------------------------------------------
// State-reading simulation
// ---------------------------------------------------------------------------

// Simulation runs SSRmin in the state-reading model under a daemon.
type Simulation struct {
	alg  *Algorithm
	sim  *statemodel.Simulator[core.State]
	rec  *trace.Recorder[core.State]
	obsv *obs.Observer
}

// NewSimulation builds a state-reading simulation of SSRmin with n
// processes. Defaults: K = n+1, a seeded central daemon, the canonical
// legitimate initial configuration.
func NewSimulation(n int, opts ...Option) *Simulation {
	c := options{k: n + 1}
	for _, o := range opts {
		o.apply(&c)
	}
	alg := core.New(n, c.k)
	if c.daemon == nil {
		c.daemon = CentralDaemon(c.seedOr(1))
	}
	if c.initial == nil {
		c.initial = alg.InitialLegitimate()
	}
	s := &Simulation{
		alg:  alg,
		sim:  statemodel.NewSimulator[core.State](alg, c.daemon, c.initial),
		obsv: c.observer(),
	}
	if c.record {
		s.rec = &trace.Recorder[core.State]{}
		s.rec.Attach(s.sim)
	}
	if o := s.obsv; o != nil {
		s.sim.Obs = o
		prev := s.sim.OnStep // compose with the recorder's hook, if any
		lastTok := holderVec(n, alg.TokenHolders(s.sim.Config()))
		lastPrim := firstHolder(alg.PrimaryHolders(s.sim.Config()))
		s.sim.OnStep = func(step int, moves []Move, cfg Config) {
			if prev != nil {
				prev(step, moves, cfg)
			}
			t := float64(step)
			cur := holderVec(n, alg.TokenHolders(cfg))
			for i := 0; i < n; i++ {
				if cur[i] != lastTok[i] {
					o.Handover(t, i, cur[i])
				}
			}
			lastTok = cur
			if p := firstHolder(alg.PrimaryHolders(cfg)); p != lastPrim {
				if p >= 0 && lastPrim >= 0 {
					o.TokenMoved(t, lastPrim, p)
				}
				lastPrim = p
			}
		}
	}
	return s
}

// holderVec expands a holder id list into a per-process bool vector so
// handover diffs iterate in deterministic process order.
func holderVec(n int, ids []int) []bool {
	v := make([]bool, n)
	for _, i := range ids {
		v[i] = true
	}
	return v
}

func firstHolder(ids []int) int {
	if len(ids) == 0 {
		return -1
	}
	return ids[0]
}

// Algorithm returns the underlying algorithm instance.
func (s *Simulation) Algorithm() *Algorithm { return s.alg }

// Observer returns the installed instrumentation hub, or nil.
func (s *Simulation) Observer() *Observer { return s.obsv }

// Config returns a copy of the current configuration.
func (s *Simulation) Config() Config { return s.sim.Config() }

// Steps returns the number of transitions executed.
func (s *Simulation) Steps() int { return s.sim.Steps() }

// Enabled returns the currently enabled moves.
func (s *Simulation) Enabled() []Move { return s.sim.Enabled() }

// Step performs one transition; ok is false on deadlock (which Lemma 4
// rules out for SSRmin). The returned moves are valid until the next
// Step; copy them to keep them.
func (s *Simulation) Step() (moves []Move, ok bool) { return s.sim.Step() }

// Run performs up to maxSteps transitions and returns how many ran.
func (s *Simulation) Run(maxSteps int) int { return s.sim.Run(maxSteps) }

// RunUntilLegitimate steps until the configuration is legitimate
// (Definition 1) or maxSteps transitions elapsed; it returns the number of
// steps taken and whether legitimacy was reached.
func (s *Simulation) RunUntilLegitimate(maxSteps int) (int, bool) {
	steps, ok := s.sim.RunUntil(s.alg.Legitimate, maxSteps)
	if ok && s.obsv != nil {
		s.obsv.ConvergedAt(float64(s.sim.Steps()), steps)
	}
	return steps, ok
}

// Legitimate reports whether the current configuration is legitimate.
func (s *Simulation) Legitimate() bool { return s.alg.Legitimate(s.sim.Config()) }

// Holders returns the indices of the currently privileged processes.
func (s *Simulation) Holders() []int { return s.alg.TokenHolders(s.sim.Config()) }

// Census returns the current token census.
func (s *Simulation) Census() TokenCount { return verify.Count(s.sim.Config()) }

// RenderTrace writes the recorded execution as a Figure-4 style table.
// The simulation must have been created WithRecording.
func (s *Simulation) RenderTrace(w io.Writer) error {
	if s.rec == nil {
		return fmt.Errorf("ssrmin: simulation was not created WithRecording")
	}
	return trace.RenderSSRmin(w, s.rec)
}

// RenderTokens writes the recorded execution as a Figure-1 style table
// (token positions only).
func (s *Simulation) RenderTokens(w io.Writer) error {
	if s.rec == nil {
		return fmt.Errorf("ssrmin: simulation was not created WithRecording")
	}
	return trace.RenderTokens(w, s.rec)
}

// WriteCSV exports the recorded execution as CSV.
func (s *Simulation) WriteCSV(w io.Writer) error {
	if s.rec == nil {
		return fmt.Errorf("ssrmin: simulation was not created WithRecording")
	}
	return trace.WriteCSV(w, s.rec)
}

// ---------------------------------------------------------------------------
// Message-passing simulation (CST over a discrete-event network)
// ---------------------------------------------------------------------------

// MPSimulation is a CST-transformed SSRmin ring over the discrete-event
// network, with a token-census timeline attached.
type MPSimulation struct {
	alg  *Algorithm
	ring *cst.Ring[core.State]
	tl   verify.Timeline
	obsv *obs.Observer
	done bool
}

// NewMPSimulation builds the message-passing simulation.
func NewMPSimulation(n int, opts ...Option) *MPSimulation {
	c := options{k: n + 1}
	for _, o := range opts {
		o.apply(&c)
	}
	// The defaults are float arithmetic in simulated seconds; the golden
	// API tests pin the seeded runs they produce bit for bit.
	delay := c.delay.Seconds()
	if delay == 0 {
		delay = 0.01
	}
	jitter := c.jitter.Seconds()
	if jitter == 0 {
		jitter = delay / 5
	}
	refresh := c.refresh.Seconds()
	if refresh == 0 {
		refresh = 5 * delay
	}
	alg := core.New(n, c.k)
	init := c.initial
	if init == nil {
		init = alg.InitialLegitimate()
	}
	ring := cst.NewRing[core.State](alg, init, cst.Options[core.State]{
		Link: msgnet.LinkParams{
			Delay:    msgnet.Time(delay),
			Jitter:   msgnet.Time(jitter),
			LossProb: c.lossProb,
		},
		Refresh:        msgnet.Time(refresh),
		Hold:           msgnet.Time(c.hold.Seconds()),
		Seed:           c.seedOr(0),
		CoherentCaches: !c.incoherent,
		RandomState:    alg.RandomState,
	})
	m := &MPSimulation{alg: alg, ring: ring, obsv: c.observer()}
	if o := m.obsv; o == nil {
		ring.Net.Observer = func(now msgnet.Time) {
			m.tl.Record(float64(now), ring.Census(core.HasToken))
		}
	} else {
		ring.Net.Obs = o
		for i, nd := range ring.Nodes {
			id := i
			nd.OnExecute = func(now msgnet.Time, rule int) {
				o.RuleFired(float64(now), id, rule)
			}
		}
		lastTok := holderVec(n, ring.Holders(core.HasToken))
		lastPrim := firstHolder(ring.Holders(core.HasPrimary))
		ring.Net.Observer = func(now msgnet.Time) {
			t := float64(now)
			m.tl.Record(t, ring.Census(core.HasToken))
			cur := holderVec(n, ring.Holders(core.HasToken))
			for i := 0; i < n; i++ {
				if cur[i] != lastTok[i] {
					o.Handover(t, i, cur[i])
				}
			}
			lastTok = cur
			if p := firstHolder(ring.Holders(core.HasPrimary)); p != lastPrim {
				if p >= 0 && lastPrim >= 0 {
					o.TokenMoved(t, lastPrim, p)
				}
				lastPrim = p
			}
		}
	}
	return m
}

// Observer returns the installed instrumentation hub, or nil.
func (m *MPSimulation) Observer() *Observer { return m.obsv }

// Run advances simulated time to the given horizon (seconds).
func (m *MPSimulation) Run(until float64) {
	m.ring.Net.Run(msgnet.Time(until))
}

// Timeline closes and returns the census timeline. The simulation must not
// be advanced afterwards.
func (m *MPSimulation) Timeline() *verify.Timeline {
	if !m.done {
		m.tl.Close(float64(m.ring.Net.Now()))
		m.done = true
	}
	return &m.tl
}

// Census returns the current number of privileged nodes (as perceived
// through the nodes' caches).
func (m *MPSimulation) Census() int { return m.ring.Census(core.HasToken) }

// Holders returns the ids of currently privileged nodes.
func (m *MPSimulation) Holders() []int { return m.ring.Holders(core.HasToken) }

// States returns the vector of true node states.
func (m *MPSimulation) States() Config { return m.ring.States() }

// Coherent reports whether all caches match the neighbors' true states.
func (m *MPSimulation) Coherent() bool { return m.ring.Coherent() }

// RuleExecutions returns the total number of rules executed.
func (m *MPSimulation) RuleExecutions() int { return m.ring.RuleExecutions() }

// MessagesSent returns the number of messages that entered a link.
func (m *MPSimulation) MessagesSent() int { return m.ring.Net.Stats().Sent }

// Ring exposes the underlying CST ring for advanced use (fault injection,
// custom observers).
func (m *MPSimulation) Ring() *cst.Ring[core.State] { return m.ring }

// ---------------------------------------------------------------------------
// Live deployment
// ---------------------------------------------------------------------------

// LiveRing is a running SSRmin deployment on the sharded event-loop
// engine (runtime.Engine): worker loops over contiguous ring arcs in
// wall-clock-paced virtual time, deterministic per seed, sustaining 100k+
// nodes.
type LiveRing struct {
	alg  *Algorithm
	eng  *runtime.Engine[core.State]
	obsv *obs.Observer
}

// NewLiveRing builds (but does not start) a live ring.
func NewLiveRing(n int, opts ...Option) *LiveRing {
	c := options{k: n + 1}
	for _, o := range opts {
		o.apply(&c)
	}
	delay := c.delay
	if delay == 0 {
		delay = time.Millisecond
	}
	jitter := c.jitter
	if jitter == 0 {
		jitter = 200 * time.Microsecond
	}
	refresh := c.refresh
	if refresh == 0 {
		refresh = 5 * time.Millisecond
	}
	alg := core.New(n, c.k)
	init := c.initial
	if init == nil {
		init = alg.InitialLegitimate()
	}
	ropts := runtime.Options[core.State]{
		Delay:          delay,
		Jitter:         jitter,
		LossProb:       c.lossProb,
		Refresh:        refresh,
		Seed:           c.seedOr(0),
		CoherentCaches: !c.incoherent,
		Workers:        c.workers,
	}
	if c.incoherent {
		ropts.RandomState = alg.RandomState
	}
	l := &LiveRing{alg: alg, eng: runtime.NewEngine[core.State](alg, init, ropts), obsv: c.observer()}
	if l.obsv != nil {
		l.eng.SetObserver(l.obsv, core.HasToken)
	}
	return l
}

// Observer returns the installed instrumentation hub, or nil.
func (l *LiveRing) Observer() *Observer { return l.obsv }

// OnPrivilege installs an application callback invoked (concurrently,
// from the engine's worker loops) whenever a node's privilege changes.
// Must be called before Start.
func (l *LiveRing) OnPrivilege(cb func(node int, privileged bool)) {
	l.eng.SetPrivilegeCallback(core.HasToken, cb)
}

// Start launches the ring.
func (l *LiveRing) Start() { l.eng.Start() }

// Stop halts the engine and waits for its goroutines to drain.
func (l *LiveRing) Stop() { l.eng.Stop() }

// Inject overwrites a node's local state at runtime — a live transient
// fault the ring must (and will) self-stabilize away from.
func (l *LiveRing) Inject(node int, s State) bool { return l.eng.Inject(node, s) }

// Census returns the current number of privileged nodes. With an
// observer or privilege callback installed this reads the shard-local
// census accumulators (O(workers)); otherwise it falls back to the O(n)
// node scan.
func (l *LiveRing) Census() int {
	if c, ok := l.eng.TrackedCensus(); ok {
		return c
	}
	return l.eng.Census(core.HasToken)
}

// Holders returns the ids of currently privileged nodes.
func (l *LiveRing) Holders() []int { return l.eng.Holders(core.HasToken) }

// RuleExecutions returns total rule executions so far.
func (l *LiveRing) RuleExecutions() int64 { return l.eng.RuleExecutions() }

// WatchCensus samples the census every interval for duration d and
// returns the observed distribution.
func (l *LiveRing) WatchCensus(d, interval time.Duration) runtime.CensusStats {
	return l.eng.WatchCensus(core.HasToken, d, interval)
}

// Engine exposes the underlying sharded event engine for advanced use
// (RunUntil fast-virtual execution, taps, snapshots).
func (l *LiveRing) Engine() *runtime.Engine[core.State] { return l.eng }

// ---------------------------------------------------------------------------
// Baseline: Dijkstra's SSToken
// ---------------------------------------------------------------------------

// DijkstraState is the local state of Dijkstra's K-state ring.
type DijkstraState = dijkstra.State

// NewSSToken returns Dijkstra's K-state token ring (the paper's base
// algorithm and the Figure 11 baseline).
func NewSSToken(n, k int) *dijkstra.Algorithm { return dijkstra.New(n, k) }

// DijkstraHasToken is SSToken's token condition, for Census/Holders use.
var DijkstraHasToken = dijkstra.HasToken

// ---------------------------------------------------------------------------
// TCP deployment
// ---------------------------------------------------------------------------

// TCPRing is an SSRmin ring deployed over real TCP sockets (loopback, one
// node per goroutine set, newline-delimited JSON announcements) — the
// closest analogue of the paper's sensor-network deployment. See
// internal/netring for wiring nodes across processes or machines.
type TCPRing struct {
	ring *netring.Ring
}

// StartTCPRing launches an n-node SSRmin ring on loopback TCP with
// ephemeral ports (K = n+1) and the given announcement refresh interval.
func StartTCPRing(n int, refresh time.Duration) (*TCPRing, error) {
	r, err := netring.StartLocalRing(n, n+1, refresh)
	if err != nil {
		return nil, err
	}
	return &TCPRing{ring: r}, nil
}

// Stop terminates every node.
func (t *TCPRing) Stop() { t.ring.Stop() }

// Census returns the number of privileged nodes.
func (t *TCPRing) Census() int { return t.ring.Census() }

// Holders returns the privileged node indices.
func (t *TCPRing) Holders() []int { return t.ring.Holders() }

// RuleExecutions sums rule executions across the ring.
func (t *TCPRing) RuleExecutions() int { return t.ring.RuleExecutions() }

// Inject overwrites node i's state — a live transient fault.
func (t *TCPRing) Inject(node int, s State) { t.ring.Nodes[node].Inject(s) }

// Addrs returns each node's TCP listen address.
func (t *TCPRing) Addrs() []string {
	out := make([]string, len(t.ring.Nodes))
	for i, n := range t.ring.Nodes {
		out[i] = n.Addr()
	}
	return out
}
