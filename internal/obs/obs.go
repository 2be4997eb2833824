// Package obs is the observability layer of three execution vehicles of
// this repository: the state-reading simulator (internal/statemodel), the
// discrete-event message network (internal/msgnet) and the sharded live
// engine (internal/runtime). It provides three things:
//
//   - Atomic counters for the events the paper's evaluation counts: rule
//     firings (per rule), steps, token moves, privilege handovers,
//     messages sent/received/dropped, convergences detected.
//   - Fixed-bucket (power-of-two) histograms for step and latency
//     distributions: moves per step, steps to convergence, the model-time
//     gap between successive privilege handovers.
//   - A pluggable Sink receiving one structured Event per action, with a
//     JSONL implementation for machine-readable event logs.
//
// The design constraint is a hot path measured in nanoseconds: every
// emission method is safe on a nil *Observer (one predictable branch), a
// counter update is one atomic add, and the Event struct is only built
// when a real sink is installed. The two discrete-event loops make no
// observer call per event: they publish their own tallies (see Counters)
// and emit to the sink LiveSink hands them. An Observer with a no-op
// sink keeps the instrumented simulators within a few percent of their
// bare speed (see BenchmarkObsOverhead at the repository root and
// BENCH_obs.json).
//
// Time is the emitting vehicle's native model time: the step index for
// the state-reading model, simulated seconds for internal/msgnet, and the
// engine's virtual seconds for internal/runtime (which Start paces 1:1
// against the wall clock). Histograms of time gaps store microseconds of
// that native unit.
//
// Concurrent runs may share one Observer, but sweeps fold instead:
// crosscheck.RunWithObs and RunWithRes run each scenario against a
// private Observer and add it to the caller's with Merge when the
// scenario ends. A swept observer's counters therefore advance once per
// scenario, not per event, and its HandoverGap holds only the gaps within
// each scenario — never one between two scenarios' gains.
package obs

import (
	"math"
	"sync/atomic"
)

// Kind classifies an Event.
type Kind uint8

// Event kinds.
const (
	// KindRuleFired: a process executed a guarded-command rule.
	KindRuleFired Kind = iota
	// KindTokenMoved: the primary token changed position (Node = new
	// holder, Peer = previous holder).
	KindTokenMoved
	// KindHandover: a process gained or lost the privilege.
	KindHandover
	// KindMsgSent: a message entered a link (Node = sender, Peer = dest).
	KindMsgSent
	// KindMsgRecv: a message was delivered (Node = receiver, Peer = sender).
	KindMsgRecv
	// KindMsgDropped: a message was lost, suppressed by a busy link, or
	// corrupted away (Node = intended receiver, Peer = sender). A frame
	// reaching a departed node or from an ex-neighbour is not a drop: the
	// engine counts it in EngineStats.Dropped only, msgnet delivers it.
	KindMsgDropped
	// KindConverged: a legitimate configuration was reached or verified
	// (Steps carries the step count / exact worst case).
	KindConverged

	numKinds
)

// String returns the wire mnemonic used in JSONL logs.
func (k Kind) String() string {
	switch k {
	case KindRuleFired:
		return "rule"
	case KindTokenMoved:
		return "token"
	case KindHandover:
		return "handover"
	case KindMsgSent:
		return "send"
	case KindMsgRecv:
		return "recv"
	case KindMsgDropped:
		return "drop"
	case KindConverged:
		return "converged"
	}
	return "unknown"
}

// Event is one structured observation.
type Event struct {
	// T is the model time of the event (see the package comment for units).
	T float64
	// Kind classifies the event.
	Kind Kind
	// Node is the acting process; -1 when not applicable.
	Node int
	// Peer is the counterpart process (sender, destination, or previous
	// holder); -1 when not applicable.
	Peer int
	// Rule is the 1-based rule number for KindRuleFired; 0 otherwise.
	Rule int
	// Gained reports, for KindHandover, whether the privilege was gained
	// (true) or released (false).
	Gained bool
	// Steps carries the step count for KindConverged.
	Steps int
}

// MaxRules bounds the per-rule firing counters; rules are 1-based and
// every algorithm in this repository has ≤ 5 rules.
const MaxRules = 8

// Counters is the atomic counter block of an Observer, safe for
// concurrent update and read. The msgnet and engine loops publish their
// message (and the engine its rule) counts from their own tallies when
// a run returns and after every engine epoch.
type Counters struct {
	// Steps counts daemon steps (state-reading) or observer-visible
	// transitions.
	Steps atomic.Int64
	// RuleFired counts rule executions across all processes.
	RuleFired atomic.Int64
	// TokenMoves counts primary-token position changes.
	TokenMoves atomic.Int64
	// Handovers counts privilege gains (one graceful handover = one gain).
	Handovers atomic.Int64
	// MsgSent, MsgRecv, MsgDropped count network-level message events.
	MsgSent, MsgRecv, MsgDropped atomic.Int64
	// Converged counts convergence detections.
	Converged atomic.Int64
	// Rules counts firings per rule number (index 1..MaxRules-1).
	Rules [MaxRules]atomic.Int64
}

// Observer aggregates counters and histograms and forwards structured
// events to its Sink. All emission methods are nil-safe: a nil *Observer
// is the documented "instrumentation off" state, so call sites need no
// conditional beyond what the method itself performs.
type Observer struct {
	sink Sink
	emit bool

	// C is the counter block.
	C Counters
	// StepMoves is the distribution of moves per daemon step.
	StepMoves Histogram
	// ConvergeSteps is the distribution of steps-to-convergence.
	ConvergeSteps Histogram
	// HandoverGap is the distribution of model-time gaps between
	// successive privilege gains, in microseconds of model time.
	HandoverGap Histogram

	lastGain atomic.Uint64 // Float64bits of the last gain time; sentinel = NaN
}

// New returns an Observer forwarding events to sink. A nil sink installs
// Nop: counters and histograms stay live, per-event construction is
// skipped.
func New(sink Sink) *Observer {
	o := &Observer{}
	o.lastGain.Store(math.Float64bits(math.NaN()))
	o.SetSink(sink)
	return o
}

// SetSink replaces the observer's sink. It must be called before the
// observed system starts emitting.
func (o *Observer) SetSink(sink Sink) {
	if sink == nil {
		sink = Nop{}
	}
	o.sink = sink
	_, isNop := sink.(Nop)
	o.emit = !isNop
}

// LiveSink returns the installed sink, or nil for a nil observer or a
// Nop sink: what the discrete-event loops emit to, cached once per run.
func (o *Observer) LiveSink() Sink {
	if o == nil || !o.emit {
		return nil
	}
	return o.sink
}

// Step records one daemon step that executed moves rules.
func (o *Observer) Step(t float64, moves int) {
	if o == nil {
		return
	}
	o.C.Steps.Add(1)
	o.StepMoves.Observe(int64(moves))
}

// RuleFired records process node executing rule at time t.
func (o *Observer) RuleFired(t float64, node, rule int) {
	if o == nil {
		return
	}
	o.C.RuleFired.Add(1)
	if rule > 0 && rule < MaxRules {
		o.C.Rules[rule].Add(1)
	}
	if o.emit {
		o.sink.Emit(Event{T: t, Kind: KindRuleFired, Node: node, Peer: -1, Rule: rule})
	}
}

// TokenMoved records the primary token moving from one process to another.
func (o *Observer) TokenMoved(t float64, from, to int) {
	if o == nil {
		return
	}
	o.C.TokenMoves.Add(1)
	if o.emit {
		o.sink.Emit(Event{T: t, Kind: KindTokenMoved, Node: to, Peer: from})
	}
}

// Handover records process node gaining (gained = true) or releasing the
// privilege. Gains feed the Handovers counter and the HandoverGap
// histogram.
func (o *Observer) Handover(t float64, node int, gained bool) {
	if o == nil {
		return
	}
	if gained {
		o.C.Handovers.Add(1)
		prev := math.Float64frombits(o.lastGain.Swap(math.Float64bits(t)))
		if !math.IsNaN(prev) && t >= prev {
			o.HandoverGap.Observe(int64((t - prev) * 1e6))
		}
	}
	if o.emit {
		o.sink.Emit(Event{T: t, Kind: KindHandover, Node: node, Peer: -1, Gained: gained})
	}
}

// ConvergedAt records that a legitimate configuration was reached (or
// exhaustively verified reachable) after steps steps.
func (o *Observer) ConvergedAt(t float64, steps int) {
	if o == nil {
		return
	}
	o.C.Converged.Add(1)
	o.ConvergeSteps.Observe(int64(steps))
	if o.emit {
		o.sink.Emit(Event{T: t, Kind: KindConverged, Node: -1, Peer: -1, Steps: steps})
	}
}

// Merge adds src's counters and histograms into o: how a sweep folds a
// worker-private observer into the shared one once per run, instead of
// contending on the shared counters for every event. src's handover-gap
// anchor is not carried over, so each merged run contributes only the
// gaps between its own gains.
func (o *Observer) Merge(src *Observer) {
	if o == nil || src == nil {
		return
	}
	c, sc := &o.C, &src.C
	for _, p := range [...][2]*atomic.Int64{
		{&c.Steps, &sc.Steps}, {&c.RuleFired, &sc.RuleFired}, {&c.TokenMoves, &sc.TokenMoves},
		{&c.Handovers, &sc.Handovers}, {&c.MsgSent, &sc.MsgSent}, {&c.MsgRecv, &sc.MsgRecv},
		{&c.MsgDropped, &sc.MsgDropped}, {&c.Converged, &sc.Converged},
	} {
		Add(p[0], p[1].Load())
	}
	for i := range c.Rules {
		Add(&c.Rules[i], sc.Rules[i].Load())
	}
	o.StepMoves.merge(&src.StepMoves)
	o.ConvergeSteps.merge(&src.ConvergeSteps)
	o.HandoverGap.merge(&src.HandoverGap)
}

// Add adds v to c, skipping the atomic write for zero: how Merge folds
// an observer and how the discrete-event loops publish their tallies.
func Add(c *atomic.Int64, v int64) {
	if v != 0 {
		c.Add(v)
	}
}
