package adversary

import (
	"math/rand"
	"slices"
	"testing"

	"ssrmin/internal/check"
	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/statemodel"
)

func drawSSRmin(a *core.Algorithm) func(*rand.Rand) statemodel.Config[core.State] {
	return func(rng *rand.Rand) statemodel.Config[core.State] {
		c := make(statemodel.Config[core.State], a.N())
		for i := range c {
			c[i] = core.State{X: rng.Intn(a.K()), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		}
		return c
	}
}

func mutateSSRmin(a *core.Algorithm) func(*rand.Rand, core.State) core.State {
	return func(rng *rand.Rand, s core.State) core.State {
		switch rng.Intn(3) {
		case 0:
			s.X = rng.Intn(a.K())
		case 1:
			s.RTS = !s.RTS
		default:
			s.TRA = !s.TRA
		}
		return s
	}
}

// convergenceMeasure counts steps to legitimacy under a deterministic
// adversarial daemon.
func convergenceMeasure(a *core.Algorithm) Measure[core.State] {
	return func(init statemodel.Config[core.State]) int {
		d := daemon.NewRuleBiased(rand.New(rand.NewSource(7)),
			core.RuleReadySecondary, core.RuleRecvSecondary, core.RuleFixNoG)
		sim := statemodel.NewSimulator[core.State](a, d, init)
		steps, ok := sim.RunUntil(a.Legitimate, a.ConvergenceStepBound())
		if !ok {
			return a.ConvergenceStepBound() + 1 // would contradict Theorem 2
		}
		return steps
	}
}

// TestSearchBeatsRandomSampling verifies the hill climber finds worse
// starts than the random baseline it embeds, and never exceeds the
// theorem's budget.
func TestSearchBeatsRandomSampling(t *testing.T) {
	a := core.New(6, 7)
	measure := convergenceMeasure(a)

	// Random baseline: best of the same number of evaluations.
	rng := rand.New(rand.NewSource(3))
	draw := drawSSRmin(a)
	randomBest := 0
	const evals = 1000
	for i := 0; i < evals; i++ {
		if s := measure(draw(rng)); s > randomBest {
			randomBest = s
		}
	}

	res := Search[core.State](a.N(), draw, mutateSSRmin(a), measure,
		Options{Restarts: 5, Budget: 199, Seed: 3})
	if res.Evaluations != evals {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, evals)
	}
	if res.Score > a.ConvergenceStepBound() {
		t.Fatalf("search found a non-converging start: %v", res.Config)
	}
	if res.Score < randomBest {
		t.Fatalf("hill climb (%d) worse than random sampling (%d)", res.Score, randomBest)
	}
	t.Logf("n=6: random best %d steps, adversarial search %d steps", randomBest, res.Score)
}

// TestSearchApproachesExactWorstCase compares the search against the
// model checker's exact worst case on n=3 (16 steps): the heuristic must
// land within a reasonable factor — and must never exceed it under any
// deterministic daemon choice (the exact value maximizes over ALL
// daemons).
func TestSearchApproachesExactWorstCase(t *testing.T) {
	a := core.New(3, 4)
	e, err := check.New[core.State](a, 0).Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := e.CheckConvergence(e.LegitSet(a.Legitimate))
	if !conv.Converges {
		t.Fatal("base convergence broken")
	}

	res := Search[core.State](a.N(), drawSSRmin(a), mutateSSRmin(a),
		convergenceMeasure(a), Options{Restarts: 10, Budget: 150, Seed: 1})
	if res.Score > conv.WorstSteps {
		t.Fatalf("search found %d steps, above the exact worst case %d — impossible", res.Score, conv.WorstSteps)
	}
	if res.Score < conv.WorstSteps/3 {
		t.Errorf("search found only %d steps vs exact %d", res.Score, conv.WorstSteps)
	}
	t.Logf("n=3: search %d steps vs exact worst case %d", res.Score, conv.WorstSteps)
}

func TestSearchDefaults(t *testing.T) {
	a := core.New(3, 4)
	res := Search[core.State](a.N(), drawSSRmin(a), mutateSSRmin(a),
		convergenceMeasure(a), Options{Seed: 2})
	if res.Config == nil || res.Evaluations != 5*(200+1) {
		t.Fatalf("defaults not applied: %+v", res)
	}
}

func TestSearchDeterministic(t *testing.T) {
	a := core.New(4, 5)
	run := func() Result[core.State] {
		return Search[core.State](a.N(), drawSSRmin(a), mutateSSRmin(a),
			convergenceMeasure(a), Options{Restarts: 2, Budget: 50, Seed: 11})
	}
	r1, r2 := run(), run()
	if r1.Score != r2.Score || !slices.Equal(r1.Config, r2.Config) {
		t.Fatal("same-seed searches diverged")
	}
}

// TestClimbGenericCandidates runs the generic climb over a non-config
// candidate type (a pair of ints scored by a rugged objective): it must
// be deterministic per seed and never worse than its own restart draws.
func TestClimbGenericCandidates(t *testing.T) {
	type pt struct{ x, y int }
	draw := func(rng *rand.Rand) pt { return pt{x: rng.Intn(100), y: rng.Intn(100)} }
	neighbor := func(rng *rand.Rand, cur pt) pt {
		if rng.Intn(2) == 0 {
			cur.x += rng.Intn(11) - 5
		} else {
			cur.y += rng.Intn(11) - 5
		}
		return cur
	}
	score := func(p pt) int { return -(p.x-42)*(p.x-42) - (p.y-17)*(p.y-17) }

	r1 := Climb[pt](draw, neighbor, score, Options{Restarts: 4, Budget: 100, Seed: 9})
	r2 := Climb[pt](draw, neighbor, score, Options{Restarts: 4, Budget: 100, Seed: 9})
	if r1 != r2 {
		t.Fatalf("same-seed climbs diverged: %+v vs %+v", r1, r2)
	}
	if r1.Evaluations != 4*101 {
		t.Fatalf("evaluations = %d, want 404", r1.Evaluations)
	}
	if r1.Score < -200 {
		t.Fatalf("climb stayed far from the optimum: %+v", r1)
	}
}

// TestSearchMatchesClimbSpecialization pins the refactor: Search must be
// exactly Climb with the single-process neighbor move, so a hand-rolled
// Climb with that neighbor reproduces Search's result bit for bit.
func TestSearchMatchesClimbSpecialization(t *testing.T) {
	a := core.New(4, 5)
	measure := convergenceMeasure(a)
	opts := Options{Restarts: 3, Budget: 60, Seed: 21}

	res := Search[core.State](a.N(), drawSSRmin(a), mutateSSRmin(a), measure, opts)
	mut := mutateSSRmin(a)
	climbed := Climb[statemodel.Config[core.State]](
		drawSSRmin(a),
		func(rng *rand.Rand, cur statemodel.Config[core.State]) statemodel.Config[core.State] {
			cand := cur.Clone()
			p := rng.Intn(a.N())
			cand[p] = mut(rng, cand[p])
			return cand
		},
		func(c statemodel.Config[core.State]) int { return measure(c) },
		opts,
	)
	if res.Score != climbed.Score || !slices.Equal(res.Config, climbed.Best) {
		t.Fatalf("Search and Climb specialization diverged: %d vs %d", res.Score, climbed.Score)
	}
}
