package cst

import (
	"math/rand"
	"slices"
	"testing"

	"ssrmin/internal/compose"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/topo"
	"ssrmin/internal/verify"
)

func ssrminRing(n, k int, opts Options[core.State]) (*core.Algorithm, *Ring[core.State]) {
	a := core.New(n, k)
	return a, NewRing[core.State](a, a.InitialLegitimate(), opts)
}

func defaultOpts() Options[core.State] {
	return Options[core.State]{
		Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
		Refresh:        0.05,
		Seed:           1,
		CoherentCaches: true,
	}
}

func TestNodeValidation(t *testing.T) {
	a := core.New(3, 4)
	defer func() {
		if recover() == nil {
			t.Error("zero refresh accepted")
		}
	}()
	ring := topo.New(3, 0)
	newNode[core.State](a, 0, core.State{}, 0, &ring)
}

func TestSetCacheRejectsNonNeighbor(t *testing.T) {
	a := core.New(5, 6)
	ring := topo.New(5, 0)
	nd := newNode[core.State](a, 0, core.State{}, 1, &ring)
	defer func() {
		if recover() == nil {
			t.Error("SetCache accepted a non-neighbor")
		}
	}()
	nd.SetCache(2, core.State{})
}

func TestCoherentStart(t *testing.T) {
	_, r := ssrminRing(5, 6, defaultOpts())
	if !r.Coherent() {
		t.Fatal("coherent option did not produce coherent caches")
	}
}

func TestIncoherentStartWithRandomState(t *testing.T) {
	opts := defaultOpts()
	opts.CoherentCaches = false
	opts.RandomState = func(rng *rand.Rand) core.State {
		return core.State{X: rng.Intn(6), RTS: rng.Intn(2) == 0, TRA: rng.Intn(2) == 0}
	}
	_, r := ssrminRing(5, 6, opts)
	// With overwhelming probability at least one cache is wrong.
	if r.Coherent() {
		t.Log("warning: random caches happened to be coherent (unlikely)")
	}
}

// TestTokenCirculatesUnderCST runs SSRmin through the transform and checks
// that the ring makes progress: the privilege visits every node.
func TestTokenCirculatesUnderCST(t *testing.T) {
	a, r := ssrminRing(5, 6, defaultOpts())
	visited := make(map[int]bool)
	r.Net.Observer = func(now msgnet.Time) {
		for _, h := range r.Holders(core.HasToken) {
			visited[h] = true
		}
	}
	r.Net.Run(3)
	if len(visited) != a.N() {
		t.Fatalf("privilege visited %d of %d nodes: %v", len(visited), a.N(), visited)
	}
	if r.RuleExecutions() == 0 {
		t.Fatal("no rules executed")
	}
}

// TestTheorem3ModelGapTolerance is the headline model-gap experiment:
// starting from a legitimate configuration with cache coherence, at every
// instant of the message-passing execution the number of token holders is
// at least one and at most two — across seeds and link delays, with and
// without message loss.
func TestTheorem3ModelGapTolerance(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		for seed := int64(1); seed <= 8; seed++ {
			opts := defaultOpts()
			opts.Seed = seed
			opts.Link.LossProb = loss
			a, r := ssrminRing(6, 7, opts)
			_ = a
			mon := verify.Monitor{Bounds: verify.SSRminBounds}
			r.Net.Observer = func(now msgnet.Time) {
				mon.Observe(float64(now), r.Census(core.HasToken))
			}
			r.Net.Run(5)
			if len(mon.Violations) != 0 {
				t.Fatalf("seed=%d loss=%v: token bound violated: %v (of %d observations)",
					seed, loss, mon.Violations[0], mon.Observed())
			}
			if mon.Observed() < 100 {
				t.Fatalf("seed=%d: only %d observations — simulation stalled?", seed, mon.Observed())
			}
		}
	}
}

// TestFigure11TokenExtinction shows the model gap of plain Dijkstra
// SSToken under CST: there are instants with zero token holders while the
// token is in flight.
func TestFigure11TokenExtinction(t *testing.T) {
	a := dijkstra.New(5, 6)
	r := NewRing[dijkstra.State](a, a.InitialLegitimate(), Options[dijkstra.State]{
		Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
		Refresh:        0.05,
		Seed:           2,
		CoherentCaches: true,
	})
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		tl.Record(float64(now), r.Census(dijkstra.HasToken))
	}
	r.Net.Run(5)
	tl.Close(float64(r.Net.Now()))
	if tl.MinCount() != 0 {
		t.Fatalf("expected zero-token instants for SSToken under CST, min = %d", tl.MinCount())
	}
	if tl.Duration(0) <= 0 {
		t.Fatal("zero-token duration should be positive")
	}
	t.Logf("SSToken under CST: %.1f%% of time with zero tokens", 100*tl.Fraction(0))
}

// TestFigure12TwoInstancesStillExtinct shows that running two independent
// SSToken instances does not fix the gap: both tokens can be in flight at
// the same instant.
func TestFigure12TwoInstancesStillExtinct(t *testing.T) {
	// Instance A starts with token at P0, instance B at P2 (staggered),
	// both in legitimate single-token form.
	p := compose.New[dijkstra.State](dijkstra.New(5, 6), 2)
	init := p.Pack(
		statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 0}, {X: 0}, {X: 0}},
		statemodel.Config[dijkstra.State]{{X: 1}, {X: 1}, {X: 0}, {X: 0}, {X: 0}},
	)
	type pairState = compose.MultiState[dijkstra.State]
	holderEither := func(v statemodel.View[pairState]) bool {
		return dijkstra.HasToken(p.Project(v, 0)) || dijkstra.HasToken(p.Project(v, 1))
	}
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		r := NewRing[pairState](p, init, Options[pairState]{
			Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.005},
			Refresh:        0.05,
			Seed:           seed,
			CoherentCaches: true,
		})
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(holderEither))
		}
		r.Net.Run(10)
		tl.Close(float64(r.Net.Now()))
		if tl.Duration(0) > 0 {
			found = true
			t.Logf("seed %d: two-instance SSToken spent %.2f%% of time with zero tokens",
				seed, 100*tl.Fraction(0))
		}
	}
	if !found {
		t.Fatal("no zero-token instant found for two independent SSToken instances in 20 seeds")
	}
}

// TestTheorem4EventualStabilization starts from an arbitrary configuration
// with arbitrary (incoherent) caches and lossy links, and checks that the
// system eventually keeps 1–2 token holders forever (we verify over a long
// trailing window).
func TestTheorem4EventualStabilization(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		a := core.New(5, 7)
		init := make(statemodel.Config[core.State], 5)
		for i := range init {
			init[i] = core.State{X: rng.Intn(7), RTS: rng.Intn(2) == 0, TRA: rng.Intn(2) == 0}
		}
		r := NewRing[core.State](a, init, Options[core.State]{
			Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.004, LossProb: 0.1},
			Refresh:        0.05,
			Seed:           int64(trial + 1),
			CoherentCaches: false,
			RandomState: func(rng *rand.Rand) core.State {
				return core.State{X: rng.Intn(7), RTS: rng.Intn(2) == 0, TRA: rng.Intn(2) == 0}
			},
		})
		const horizon = 60
		const settle = 30
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			if now >= settle {
				tl.Record(float64(now), r.Census(core.HasToken))
			}
		}
		r.Net.Run(horizon)
		tl.Close(float64(r.Net.Now()))
		if min := tl.MinCount(); min < 1 {
			t.Fatalf("trial %d: zero-token instant after settling (min=%d)", trial, min)
		}
		if max := tl.MaxCount(); max > 2 {
			t.Fatalf("trial %d: %d token holders after settling", trial, max)
		}
	}
}

// TestCensusAndHoldersAgree cross-checks the two census APIs.
func TestCensusAndHoldersAgree(t *testing.T) {
	_, r := ssrminRing(5, 6, defaultOpts())
	r.Net.Run(1)
	if got, want := r.Census(core.HasToken), len(r.Holders(core.HasToken)); got != want {
		t.Errorf("Census=%d Holders=%d", got, want)
	}
}

// TestStatesSnapshot checks that States reflects node state updates.
func TestStatesSnapshot(t *testing.T) {
	_, r := ssrminRing(5, 6, defaultOpts())
	before := r.States()
	r.Net.Run(2)
	after := r.States()
	if slices.Equal(before, after) {
		t.Error("no state change after 2 simulated seconds")
	}
	if len(after) != 5 {
		t.Errorf("States() has %d entries", len(after))
	}
}

// TestDeterministicExecution ensures the full CST simulation is a pure
// function of the seed.
func TestDeterministicExecution(t *testing.T) {
	run := func() (statemodel.Config[core.State], int) {
		_, r := ssrminRing(5, 6, defaultOpts())
		r.Net.Run(3)
		return r.States(), r.RuleExecutions()
	}
	c1, e1 := run()
	c2, e2 := run()
	if !slices.Equal(c1, c2) || e1 != e2 {
		t.Errorf("same seed diverged: %v/%d vs %v/%d", c1, e1, c2, e2)
	}
}

// TestOnExecuteHook verifies the per-node execution hook fires with
// plausible rule numbers.
func TestOnExecuteHook(t *testing.T) {
	_, r := ssrminRing(5, 6, defaultOpts())
	rules := map[int]int{}
	for _, nd := range r.Nodes {
		nd.OnExecute = func(now msgnet.Time, rule int) { rules[rule]++ }
	}
	r.Net.Run(3)
	for rule := range rules {
		if rule < 1 || rule > 5 {
			t.Errorf("hook reported rule %d", rule)
		}
	}
	// The circulation cycle needs Rules 1, 2 and 3.
	for _, want := range []int{1, 2, 3} {
		if rules[want] == 0 {
			t.Errorf("rule %d never executed: %v", want, rules)
		}
	}
}

// TestHoldDwellSSToken gives nodes a critical-section dwell: SSToken then
// spends real time holding its token, but the handover gaps (zero-token
// intervals) remain — the model gap is about the transit, not the dwell.
func TestHoldDwellSSToken(t *testing.T) {
	a := dijkstra.New(5, 6)
	r := NewRing[dijkstra.State](a, a.InitialLegitimate(), Options[dijkstra.State]{
		Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002},
		Refresh:        0.05,
		Seed:           3,
		Hold:           0.04,
		CoherentCaches: true,
	})
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		tl.Record(float64(now), r.Census(dijkstra.HasToken))
	}
	r.Net.Run(5)
	tl.Close(float64(r.Net.Now()))
	if tl.Duration(1) <= 0 {
		t.Fatal("with a dwell, SSToken should spend time at one token")
	}
	if tl.Duration(0) <= 0 {
		t.Fatal("zero-token handover gaps should persist with a dwell")
	}
	t.Logf("SSToken+dwell: %.1f%% zero, %.1f%% one token",
		100*tl.Fraction(0), 100*tl.Fraction(1))
}

// TestHoldDwellSSRminKeepsInvariant repeats the Theorem 3 check with a
// dwell: the 1–2 bound must survive arbitrary execution pacing.
func TestHoldDwellSSRminKeepsInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		opts := defaultOpts()
		opts.Seed = seed
		opts.Hold = 0.03
		_, r := ssrminRing(5, 6, opts)
		mon := verify.Monitor{Bounds: verify.SSRminBounds}
		r.Net.Observer = func(now msgnet.Time) {
			mon.Observe(float64(now), r.Census(core.HasToken))
		}
		r.Net.Run(5)
		if len(mon.Violations) != 0 {
			t.Fatalf("seed=%d: violation with dwell: %v", seed, mon.Violations[0])
		}
	}
}

// TestHealsFromMessageCorruption enables payload corruption on the links:
// corrupted announcements poison caches, but the periodic refresh plus the
// fix rules heal the system — the census settles back into [1,2] between
// corruption bursts and, once corruption stops, permanently.
func TestHealsFromMessageCorruption(t *testing.T) {
	a := core.New(5, 6)
	r := NewRing[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Link:           msgnet.LinkParams{Delay: 0.01, Jitter: 0.002, CorruptProb: 0.05},
		Refresh:        0.05,
		Seed:           11,
		CoherentCaches: true,
	})
	r.Net.Corrupt = func(rng *rand.Rand, payload core.State) core.State {
		return core.State{X: rng.Intn(6), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
	}
	// Run under corruption for 30 simulated seconds.
	r.Net.Run(30)
	if r.Net.Stats().Corrupted == 0 {
		t.Fatal("no corruption happened; test is vacuous")
	}
	// Stop corrupting; the system must stabilize and stay stable.
	r.Net.Corrupt = func(rng *rand.Rand, payload core.State) core.State { return payload }
	settle := r.Net.Now() + 20
	r.Net.Run(settle)
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		tl.Record(float64(now), r.Census(core.HasToken))
	}
	r.Net.Run(settle + 10)
	tl.Close(float64(r.Net.Now()))
	if tl.MinCount() < 1 || tl.MaxCount() > 2 {
		t.Fatalf("census [%d,%d] after corruption ceased", tl.MinCount(), tl.MaxCount())
	}
}

// TestLinkOutage documents a model boundary: a PERMANENT duplex cut of one
// ring edge violates the paper's communication assumption (every state
// update is eventually delivered — Lemma 9's fairness), and coverage can
// then go dark: the node that really holds the Dijkstra token cannot see
// it because its predecessor cache is frozen pre-cut. Self-stabilization
// still applies the moment the edge heals: the census returns to [1,2]
// and circulation resumes.
func TestLinkOutage(t *testing.T) {
	a, r := ssrminRing(5, 6, defaultOpts())
	r.Net.Run(1)

	// Cut the edge between P1 and P2 (both directions).
	r.Net.SetLinkUp(1, 2, false)
	r.Net.SetLinkUp(2, 1, false)
	sawDark := false
	r.Net.Observer = func(now msgnet.Time) {
		if r.Census(core.HasToken) == 0 {
			sawDark = true
		}
	}
	r.Net.Run(10)
	// With this seed the cut catches a handover mid-flight and the ring
	// goes dark — the model-gap guarantee needs eventual delivery.
	if !sawDark {
		t.Log("note: this seed kept coverage through the cut (cut missed the handshake)")
	}

	// Heal and verify recovery: census back to [1,2] and full circulation.
	r.Net.SetLinkUp(1, 2, true)
	r.Net.SetLinkUp(2, 1, true)
	settle := r.Net.Now() + 5
	r.Net.Observer = nil
	r.Net.Run(settle)

	visited := map[int]bool{}
	mon := verify.Monitor{Bounds: verify.SSRminBounds}
	r.Net.Observer = func(now msgnet.Time) {
		mon.Observe(float64(now), r.Census(core.HasToken))
		for _, h := range r.Holders(core.HasToken) {
			visited[h] = true
		}
	}
	r.Net.Run(settle + 10)
	if len(mon.Violations) != 0 {
		t.Fatalf("census out of [1,2] after healing: %v", mon.Violations[0])
	}
	if len(visited) != a.N() {
		t.Fatalf("circulation did not resume after healing: visited %v", visited)
	}
}

// TestRunAllocatesNothing measures the event loop's 0 allocs/op at run
// time, under loss, duplication and corruption: allocgate reads the
// compiler's escape analysis, which cannot see a non-escaping map or
// slice that later grows on the heap.
func TestRunAllocatesNothing(t *testing.T) {
	opts := defaultOpts()
	opts.Link.LossProb, opts.Link.DupProb, opts.Link.CorruptProb = 0.1, 0.2, 0.05
	_, r := ssrminRing(16, 17, opts)
	r.Net.Corrupt = func(rng *rand.Rand, s core.State) core.State { return core.State{X: rng.Intn(17)} }
	horizon := msgnet.Time(1)
	r.Net.Run(horizon) // the arena grows to the steady event population
	if allocs := testing.AllocsPerRun(20, func() {
		horizon += 0.5
		r.Net.Run(horizon)
	}); allocs != 0 {
		t.Errorf("%v allocs per half second of simulated time, want 0", allocs)
	}
}
