package daemon

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/trace"
)

// The in-place step path: Simulator.Step writes each successor into a
// spare buffer and the daemons write their selections into buffers they
// own. These tests pin that against the allocating public path — a fresh
// Enabled set, a copied selection and a fresh Apply successor per step —
// for every daemon of this package.

const (
	stepN     = 6
	stepK     = 7
	stepSteps = 120
	stepSeeds = 24
)

// stepDaemon builds one scheduler from a seed, so the simulator run and
// its reference run see the same choices.
type stepDaemon struct {
	name string
	make func(seed int64, alg *core.Algorithm, init statemodel.Config[core.State]) statemodel.Daemon
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func stepDaemons() []stepDaemon {
	type cfg = statemodel.Config[core.State]
	return []stepDaemon{
		{"central-random", func(s int64, _ *core.Algorithm, _ cfg) statemodel.Daemon { return NewCentralRandom(seeded(s)) }},
		{"central-lowest", func(int64, *core.Algorithm, cfg) statemodel.Daemon { return NewCentralLowest() }},
		{"synchronous", func(int64, *core.Algorithm, cfg) statemodel.Daemon { return Synchronous{} }},
		{"random-subset", func(s int64, _ *core.Algorithm, _ cfg) statemodel.Daemon { return NewRandomSubset(seeded(s), 0.5) }},
		{"rule-biased", func(s int64, _ *core.Algorithm, _ cfg) statemodel.Daemon { return NewRuleBiased(seeded(s), 1, 3, 5) }},
		{"starver", func(s int64, _ *core.Algorithm, _ cfg) statemodel.Daemon { return NewStarver(seeded(s), 0, 2) }},
	}
}

func randomConfig(seed int64) statemodel.Config[core.State] {
	rng := seeded(seed)
	c := make(statemodel.Config[core.State], stepN)
	for i := range c {
		c[i] = core.State{X: rng.Intn(stepK), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
	}
	return c
}

// refStep is one transition on the allocating path: a fresh enabled set,
// a copy of the selection and a fresh successor from Apply.
func refStep(alg *core.Algorithm, d statemodel.Daemon, c statemodel.Config[core.State]) (statemodel.Config[core.State], []statemodel.Move) {
	sel := d.Select(statemodel.Enabled[core.State](alg, c))
	moves := append([]statemodel.Move(nil), sel...)
	return statemodel.Apply[core.State](alg, c, moves), moves
}

// TestStepMatchesApply: every configuration Step produces equals
// statemodel.Apply on the previous one with the executed moves, and the
// whole trajectory — moves and configurations — equals a same-seed run
// on the allocating path.
func TestStepMatchesApply(t *testing.T) {
	alg := core.New(stepN, stepK)
	for _, dc := range stepDaemons() {
		t.Run(dc.name, func(t *testing.T) {
			for seed := int64(1); seed <= stepSeeds; seed++ {
				init := randomConfig(seed)
				sim := statemodel.NewSimulator[core.State](alg, dc.make(seed, alg, init), init)
				ref, refCfg := dc.make(seed, alg, init), init.Clone()
				prev := sim.Config()
				for step := 1; step <= stepSteps; step++ {
					moves, ok := sim.Step()
					if !ok {
						t.Fatalf("seed %d step %d: deadlock", seed, step)
					}
					got := sim.Config()
					if want := statemodel.Apply[core.State](alg, prev, moves); !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: Step gave %v, Apply(%v) gives %v", seed, step, got, moves, want)
					}
					var refMoves []statemodel.Move
					refCfg, refMoves = refStep(alg, ref, refCfg)
					if !reflect.DeepEqual(moves, refMoves) || !slices.Equal(got, refCfg) {
						t.Fatalf("seed %d step %d: Step ran %v to %v, the allocating path %v to %v",
							seed, step, moves, got, refMoves, refCfg)
					}
					prev = got
				}
			}
		})
	}
}

// TestStepHooksUnchanged: a trace.Recorder and a RoundCounter attached
// to the simulator report exactly what they report when fed the same
// execution on the allocating path.
func TestStepHooksUnchanged(t *testing.T) {
	alg := core.New(stepN, stepK)
	for _, dc := range stepDaemons() {
		t.Run(dc.name, func(t *testing.T) {
			for seed := int64(1); seed <= stepSeeds; seed++ {
				init := randomConfig(seed)
				sim := statemodel.NewSimulator[core.State](alg, dc.make(seed, alg, init), init)
				rec := &trace.Recorder[core.State]{}
				rec.Attach(sim)
				rc := statemodel.NewRoundCounter[core.State](alg)
				rc.Attach(sim)
				sim.Run(stepSteps)

				ref := dc.make(seed, alg, init)
				want := &trace.Recorder[core.State]{Configs: []statemodel.Config[core.State]{init.Clone()}}
				wantRC := statemodel.NewRoundCounter[core.State](alg)
				wantRC.Prime(init)
				cfg := init.Clone()
				for step := 0; step < stepSteps; step++ {
					var moves []statemodel.Move
					cfg, moves = refStep(alg, ref, cfg)
					want.Moves = append(want.Moves, moves)
					want.Configs = append(want.Configs, cfg)
					wantRC.Observe(moves, cfg)
				}
				if !reflect.DeepEqual(rec.Configs, want.Configs) || !reflect.DeepEqual(rec.Moves, want.Moves) {
					t.Fatalf("seed %d: the recorder's trace differs from the allocating path's", seed)
				}
				if rc.Rounds() != wantRC.Rounds() {
					t.Fatalf("seed %d: %d rounds, the allocating path counts %d", seed, rc.Rounds(), wantRC.Rounds())
				}
			}
		})
	}
}

// TestRecorderHoldsDistinctConfigs: a recorder attached for 50 steps
// holds 51 configurations in 51 separate buffers, all different. A hook
// that kept the simulator's buffer instead of a copy would record the
// two double-buffer halves over and over.
func TestRecorderHoldsDistinctConfigs(t *testing.T) {
	alg := core.New(stepN, stepK)
	sim := statemodel.NewSimulator[core.State](alg, NewCentralLowest(), alg.InitialLegitimate())
	rec := &trace.Recorder[core.State]{}
	rec.Attach(sim)
	sim.Run(50)
	if len(rec.Configs) != 51 {
		t.Fatalf("recorded %d configurations, want 51", len(rec.Configs))
	}
	for i := range rec.Configs {
		for j := i + 1; j < len(rec.Configs); j++ {
			if &rec.Configs[i][0] == &rec.Configs[j][0] {
				t.Fatalf("configurations %d and %d share a buffer", i, j)
			}
			if slices.Equal(rec.Configs[i], rec.Configs[j]) {
				t.Fatalf("configurations %d and %d are equal: %v", i, j, rec.Configs[i])
			}
		}
	}
}

// TestStepAllocatesNothing: once warmed up, a step allocates nothing
// under the daemons the soak harness runs.
func TestStepAllocatesNothing(t *testing.T) {
	const n = 16
	alg := core.New(n, n+1)
	for _, tc := range []struct {
		name string
		d    statemodel.Daemon
	}{
		{"central-random", NewCentralRandom(seeded(1))},
		{"synchronous", Synchronous{}},
		{"random-subset", NewRandomSubset(seeded(1), 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := statemodel.NewSimulator[core.State](alg, tc.d, alg.InitialLegitimate())
			sim.Run(200)
			if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
				t.Errorf("Step under %s: %v allocs per step, want 0", tc.name, allocs)
			}
		})
	}
}
