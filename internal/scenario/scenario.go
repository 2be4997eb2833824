// Package scenario runs declarative, JSON-described message-passing
// experiments: algorithm, ring size, link characteristics, and a timed
// fault script (state corruption, cache corruption, link cuts and heals).
// It gives the CLI a reproducible, shareable experiment format — a run is
// a pure function of the scenario document.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/fault"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/synchro"
	"ssrmin/internal/verify"
)

// Fault is one scripted fault event.
type Fault struct {
	// At is the simulated time of injection (seconds).
	At float64 `json:"at"`
	// Type is one of "states", "caches", "cut", "heal", "loss-on",
	// "loss-off" — or a churn event: "join" (a new node splices in after
	// node Node), "leave" (node Node leaves the ring), "splice" (the
	// Count members following Node are removed and the ring reconnects).
	Type string `json:"type"`
	// Count is how many states/cache entries to corrupt (states/caches),
	// or the arc length of a splice (default 1).
	Count int `json:"count,omitempty"`
	// Link is the ring edge to cut or heal, as the lower endpoint: the
	// edge between node Link and node Link+1 (mod n).
	Link int `json:"link,omitempty"`
	// Node anchors a churn event: the join insertion point, the leaver,
	// or the node whose following arc a splice removes. Joined nodes get
	// ids n, n+1, ... in join order and are valid anchors for later
	// events.
	Node int `json:"node,omitempty"`
}

// IsChurn reports whether the fault is a ring-topology event.
func (f Fault) IsChurn() bool {
	return f.Type == "join" || f.Type == "leave" || f.Type == "splice"
}

// Link describes the ring links.
type Link struct {
	// Delay is the base propagation delay (seconds; default 0.01).
	Delay float64 `json:"delay"`
	// Jitter is the uniform extra delay bound (seconds).
	Jitter float64 `json:"jitter,omitempty"`
	// Loss is the per-message loss probability.
	Loss float64 `json:"loss,omitempty"`
	// Dup is the per-message duplication probability.
	Dup float64 `json:"dup,omitempty"`
	// Corrupt is the per-message payload corruption probability.
	Corrupt float64 `json:"corrupt,omitempty"`
}

// Scenario is one declarative experiment.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Algorithm is "ssrmin" (default) or "sstoken".
	Algorithm string `json:"algorithm,omitempty"`
	// Transform is "cst" (default) or "synchro" (the α-synchronizer).
	// Fault scripts and Hold are only supported under "cst".
	Transform string `json:"transform,omitempty"`
	// N is the ring size; K the counter space (default N+1).
	N int `json:"n"`
	K int `json:"k,omitempty"`
	// Horizon is the simulated duration in seconds.
	Horizon float64 `json:"horizon"`
	// Link configures every ring link.
	Link Link `json:"link"`
	// Refresh is the CST announcement period (default 5×delay).
	Refresh float64 `json:"refresh,omitempty"`
	// Hold is the critical-section dwell (seconds).
	Hold float64 `json:"hold,omitempty"`
	// Seed fixes all randomness.
	Seed int64 `json:"seed"`
	// RandomStart draws an arbitrary initial configuration; otherwise the
	// canonical legitimate one is used.
	RandomStart bool `json:"randomStart,omitempty"`
	// IncoherentCaches seeds caches with random states.
	IncoherentCaches bool `json:"incoherentCaches,omitempty"`
	// SettleBefore discards census observations before this time when
	// computing the report (for stabilization scenarios).
	SettleBefore float64 `json:"settleBefore,omitempty"`
	// Faults is the timed fault script.
	Faults []Fault `json:"faults,omitempty"`
}

// Result is the measured outcome of one scenario run.
type Result struct {
	Name string `json:"name"`
	// MinCensus/MaxCensus over the (post-settle) observation window.
	MinCensus int `json:"minCensus"`
	MaxCensus int `json:"maxCensus"`
	// Fractions maps census value -> fraction of observed time.
	Fractions map[int]float64 `json:"fractions"`
	// Violations counts observed instants outside [1,2].
	Violations int `json:"violations"`
	// LastBad is the last time the census left [1,2], or -1.
	LastBad float64 `json:"lastBad"`
	// RuleExecutions and message statistics.
	RuleExecutions int          `json:"ruleExecutions"`
	Net            msgnet.Stats `json:"net"`
}

// Load parses a JSON document containing either one scenario object or an
// array of them. Decoding is strict: an unknown field — usually a
// misspelled knob like "horizn" — is an error, not a parameter silently
// left at its default.
func Load(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: read: %w", err)
	}
	// Sniff the first non-space byte to pick object vs array, so a typo in
	// an array document reports the field error instead of "not an object".
	isArray := false
	for _, b := range data {
		if b == ' ' || b == '\t' || b == '\r' || b == '\n' {
			continue
		}
		isArray = b == '['
		break
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if isArray {
		var many []Scenario
		if err := dec.Decode(&many); err != nil {
			return nil, fmt.Errorf("scenario: parse: %w", err)
		}
		return many, nil
	}
	var one Scenario
	if err := dec.Decode(&one); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return []Scenario{one}, nil
}

// MaxN bounds a scenario's ring size. Validate allocates the ring's
// membership plan before running anything, so an unbounded n would let a
// short file demand gigabytes; the shipped scenarios use n ≤ 6.
const MaxN = 1 << 20

// CheckTimings rejects link timings no simulator can run: a delay or a
// refresh period that is not positive and finite, or a jitter that is
// negative or not finite. Validate calls it after filling the defaults.
func CheckTimings(delay, jitter, refresh float64) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(delay) || delay <= 0:
		return fmt.Errorf("link delay %v must be positive and finite", delay)
	case !finite(jitter) || jitter < 0:
		return fmt.Errorf("link jitter %v must be non-negative and finite", jitter)
	case !finite(refresh) || refresh <= 0:
		return fmt.Errorf("refresh %v must be positive and finite", refresh)
	}
	return nil
}

// Validate checks the scenario and fills defaults in place.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	switch s.Algorithm {
	case "":
		s.Algorithm = "ssrmin"
	case "ssrmin", "sstoken":
	default:
		return fmt.Errorf("scenario %q: unknown algorithm %q", s.Name, s.Algorithm)
	}
	switch s.Transform {
	case "":
		s.Transform = "cst"
	case "cst":
	case "synchro":
		if len(s.Faults) > 0 || s.Hold != 0 {
			return fmt.Errorf("scenario %q: faults/hold are not supported under the synchro transform", s.Name)
		}
	default:
		return fmt.Errorf("scenario %q: unknown transform %q", s.Name, s.Transform)
	}
	minN := 3
	if s.Algorithm == "sstoken" {
		minN = 2
	}
	if s.N < minN {
		return fmt.Errorf("scenario %q: n = %d too small", s.Name, s.N)
	}
	if s.N > MaxN {
		return fmt.Errorf("scenario %q: n = %d exceeds the maximum %d", s.Name, s.N, MaxN)
	}
	if s.K == 0 {
		s.K = s.N + 1
	}
	if s.K <= s.N {
		return fmt.Errorf("scenario %q: K = %d must exceed n = %d", s.Name, s.K, s.N)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario %q: horizon must be positive", s.Name)
	}
	if s.Link.Delay == 0 {
		s.Link.Delay = 0.01
	}
	if s.Refresh == 0 {
		s.Refresh = 5 * s.Link.Delay
	}
	if err := CheckTimings(s.Link.Delay, s.Link.Jitter, s.Refresh); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for _, p := range []float64{s.Link.Loss, s.Link.Dup, s.Link.Corrupt} {
		if p < 0 || p > 1 {
			return fmt.Errorf("scenario %q: probability %v out of range", s.Name, p)
		}
	}
	for i, f := range s.Faults {
		switch f.Type {
		case "states", "caches":
			if f.Count <= 0 {
				return fmt.Errorf("scenario %q: fault %d needs a positive count", s.Name, i)
			}
		case "cut", "heal":
			if f.Link < 0 || f.Link >= s.N {
				return fmt.Errorf("scenario %q: fault %d link %d out of range", s.Name, i, f.Link)
			}
		case "loss-on", "loss-off":
		case "join", "leave":
			if f.Node < 0 {
				return fmt.Errorf("scenario %q: fault %d node %d out of range", s.Name, i, f.Node)
			}
		case "splice":
			if f.Node < 0 {
				return fmt.Errorf("scenario %q: fault %d node %d out of range", s.Name, i, f.Node)
			}
			if f.Count == 0 {
				s.Faults[i].Count = 1
			} else if f.Count < 0 {
				return fmt.Errorf("scenario %q: fault %d needs a positive count", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: fault %d has unknown type %q", s.Name, i, f.Type)
		}
		if f.At < 0 || f.At > s.Horizon {
			return fmt.Errorf("scenario %q: fault %d at %v outside horizon", s.Name, i, f.At)
		}
	}
	// Churn events must form a realizable plan, and the counter space must
	// dominate the largest ring the plan grows (the K > n requirement,
	// applied to every size the ring passes through).
	if _, maxSize, err := ChurnPlan(s.N, s.Faults); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	} else if s.K <= maxSize {
		return fmt.Errorf("scenario %q: K = %d must exceed the churn plan's max ring size %d", s.Name, s.K, maxSize)
	}
	return nil
}

// Run executes the scenario and returns its measurements.
func (s Scenario) Run() (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if s.Algorithm == "sstoken" {
		a := dijkstra.New(s.N, s.K)
		draw := func(rng *rand.Rand) dijkstra.State { return dijkstra.State{X: rng.Intn(s.K)} }
		return run[dijkstra.State](s, a, a.InitialLegitimate(), draw, dijkstra.HasToken), nil
	}
	a := core.New(s.N, s.K)
	return run[core.State](s, a, a.InitialLegitimate(), a.RandomState, core.HasToken), nil
}

// run executes a validated scenario for one algorithm, whose canonical
// legitimate configuration is legit and whose arbitrary states draw draws.
func run[S comparable](s Scenario, alg statemodel.Algorithm[S], legit statemodel.Config[S], draw func(*rand.Rand) S, holder func(statemodel.View[S]) bool) Result {
	init := InitialConfig(s, legit, draw)
	c := census{settle: s.SettleBefore, res: Result{Name: s.Name, LastBad: -1, Fractions: map[int]float64{}}}
	if s.Transform == "synchro" {
		ring := synchro.NewRing[S](alg, init, s.Link.params(), msgnet.Time(s.Refresh), s.Seed)
		ring.Net.Observer = func(now msgnet.Time) { c.observe(now, ring.Census(holder)) }
		ring.Net.Run(msgnet.Time(s.Horizon))
		return c.result(ring.Net.Now(), ring.RuleExecutions(), ring.Net.Stats())
	}
	ring := NewRing(s, alg, init, draw, nil)
	ring.Net.Observer = func(now msgnet.Time) { c.observe(now, ring.Census(holder)) }
	inj := fault.NewInjector(s.Seed + 1)
	for _, f := range Ordered(s.Faults) {
		ring.Net.Run(msgnet.Time(f.At))
		Apply(s, ring, f, inj, draw)
	}
	ring.Net.Run(msgnet.Time(s.Horizon))
	return c.result(ring.Net.Now(), ring.RuleExecutions(), ring.Net.Stats())
}

// census turns the census read after every event into a Result: the
// timeline of the post-settle window and the instants outside [1,2].
type census struct {
	settle float64
	tl     verify.Timeline
	res    Result
}

func (c *census) observe(now msgnet.Time, count int) {
	t := float64(now)
	if t >= c.settle {
		c.tl.Record(t, count)
	}
	if count < 1 || count > 2 {
		c.res.LastBad = t
		if t >= c.settle {
			c.res.Violations++
		}
	}
}

func (c *census) result(end msgnet.Time, rules int, net msgnet.Stats) Result {
	c.tl.Close(float64(end))
	c.res.MinCensus = c.tl.MinCount()
	c.res.MaxCensus = c.tl.MaxCount()
	for _, n := range c.tl.Counts() {
		c.res.Fractions[n] = c.tl.Fraction(n)
	}
	c.res.RuleExecutions = rules
	c.res.Net = net
	return c.res
}

// The functions below are what every executor of a scenario's CST ring
// shares — Run here and internal/crosscheck's message-passing tier — so
// a fault script means the same thing wherever it runs.

// InitialConfig returns the configuration a validated scenario starts
// from: legit, or under RandomStart one draw per node, in node order,
// from a stream seeded by Seed.
func InitialConfig[S comparable](s Scenario, legit statemodel.Config[S], draw func(*rand.Rand) S) statemodel.Config[S] {
	if !s.RandomStart {
		return legit
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cfg := make(statemodel.Config[S], s.N)
	for i := range cfg {
		cfg[i] = draw(rng)
	}
	return cfg
}

// params is the link model every ring link of the scenario runs on.
func (l Link) params() msgnet.LinkParams {
	return msgnet.LinkParams{
		Delay:       msgnet.Time(l.Delay),
		Jitter:      msgnet.Time(l.Jitter),
		LossProb:    l.Loss,
		DupProb:     l.Dup,
		CorruptProb: l.Corrupt,
	}
}

// NewRing builds the CST ring a validated scenario runs on: its links,
// refresh period, hold, seed and cache start, one dormant spare per join
// of its churn plan, and — when links corrupt frames — a corruption that
// replaces the payload with a draw. A non-nil arena is the event arena
// the ring reuses.
func NewRing[S comparable](s Scenario, alg statemodel.Algorithm[S], init statemodel.Config[S], draw func(*rand.Rand) S, arena *msgnet.Arena[S]) *cst.Ring[S] {
	spare, _, _ := ChurnPlan(s.N, s.Faults) // the plan is validated
	ring := cst.NewRing[S](alg, init, cst.Options[S]{
		Link:           s.Link.params(),
		Refresh:        msgnet.Time(s.Refresh),
		Hold:           msgnet.Time(s.Hold),
		Seed:           s.Seed,
		CoherentCaches: !s.IncoherentCaches,
		RandomState:    draw,
		Arena:          arena,
		Spare:          spare,
	})
	if s.Link.Corrupt > 0 {
		ring.Net.Corrupt = func(rng *rand.Rand, _ S) S { return draw(rng) }
	}
	return ring
}

// Apply injects fault f into ring at the ring's current instant, drawing
// from inj, and returns the ids a "states" fault overwrote (nil for every
// other type). Faults must be applied in Ordered order, one Run(f.At)
// before each.
func Apply[S comparable](s Scenario, ring *cst.Ring[S], f Fault, inj *fault.Injector, draw func(*rand.Rand) S) []int {
	switch f.Type {
	case "states":
		return fault.CorruptStates[S](inj, ring, f.Count, draw)
	case "caches":
		fault.CorruptCaches[S](inj, ring, f.Count, draw)
	case "cut":
		setEdge(ring.Net, f.Link, (f.Link+1)%s.N, false)
	case "heal":
		setEdge(ring.Net, f.Link, (f.Link+1)%s.N, true)
	case "loss-on":
		ring.Net.LossEnabled = true
	case "loss-off":
		ring.Net.LossEnabled = false
	case "join":
		ring.Join(f.Node, draw(inj.Rand()))
	case "leave":
		ring.Leave(f.Node)
	case "splice":
		ring.Splice(f.Node, f.Count)
	}
	return nil
}

// setEdge cuts or heals both directions of one ring edge, skipping
// directions that churn has already removed from the topology — a cut of
// a spliced-away edge is a no-op, not a crash.
func setEdge[S comparable](net *msgnet.Network[S], a, b int, up bool) {
	if net.HasLink(a, b) {
		net.SetLinkUp(a, b, up)
	}
	if net.HasLink(b, a) {
		net.SetLinkUp(b, a, up)
	}
}

// WriteResult renders a result as indented JSON.
func WriteResult(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
