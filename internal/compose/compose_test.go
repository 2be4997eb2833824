package compose

import (
	"math/rand"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

func TestNewValidation(t *testing.T) {
	inner := dijkstra.New(4, 5)
	for _, m := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(m=%d) did not panic", m)
				}
			}()
			New[dijkstra.State](inner, m)
		}()
	}
	c := New[dijkstra.State](inner, 3)
	if c.M() != 3 || c.N() != 4 || c.Rules() != 7 {
		t.Fatalf("M=%d N=%d Rules=%d", c.M(), c.N(), c.Rules())
	}
	if c.Name() == "" {
		t.Error("accessors broken")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	inner := dijkstra.New(3, 4)
	c := New[dijkstra.State](inner, 2)
	a := statemodel.Config[dijkstra.State]{{X: 1}, {X: 2}, {X: 3}}
	b := statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 1}}
	packed := c.Pack(a, b)
	parts := c.Unpack(packed)
	if !slices.Equal(parts[0], a) || !slices.Equal(parts[1], b) {
		t.Fatalf("round trip failed: %v", parts)
	}
}

func TestPackValidation(t *testing.T) {
	c := New[dijkstra.State](dijkstra.New(3, 4), 2)
	defer func() {
		if recover() == nil {
			t.Error("Pack accepted wrong count")
		}
	}()
	c.Pack(statemodel.Config[dijkstra.State]{{X: 1}, {X: 2}, {X: 3}})
}

// TestProjectionFaithful runs a composed simulation and checks each
// projected instance evolves exactly as a standalone simulation driven by
// the corresponding projected schedule.
func TestProjectionFaithful(t *testing.T) {
	inner := dijkstra.New(4, 5)
	c := New[dijkstra.State](inner, 3)
	rng := rand.New(rand.NewSource(1))

	cfgs := make([]statemodel.Config[dijkstra.State], 3)
	for j := range cfgs {
		cfgs[j] = make(statemodel.Config[dijkstra.State], 4)
		for i := range cfgs[j] {
			cfgs[j][i] = dijkstra.State{X: rng.Intn(5)}
		}
	}
	packed := c.Pack(cfgs...)

	for step := 0; step < 300; step++ {
		moves := statemodel.Enabled[MultiState[dijkstra.State]](c, packed)
		if len(moves) == 0 {
			t.Fatal("composed ring deadlocked (Dijkstra never deadlocks)")
		}
		sel := moves[rng.Intn(len(moves))]
		// Apply to the composition.
		next := statemodel.Apply[MultiState[dijkstra.State]](c, packed, []statemodel.Move{sel})
		// Apply the projection to each standalone instance.
		for j := 0; j < 3; j++ {
			if sel.Rule&(1<<j) != 0 {
				cfgs[j] = statemodel.Apply[dijkstra.State](inner, cfgs[j],
					[]statemodel.Move{{Process: sel.Process, Rule: 1}})
			}
		}
		packed = next
		parts := c.Unpack(packed)
		for j := 0; j < 3; j++ {
			if !slices.Equal(parts[j], cfgs[j]) {
				t.Fatalf("step %d: instance %d diverged: %v vs %v", step, j, parts[j], cfgs[j])
			}
		}
	}
}

// TestComposedSSRminGrantBounds is the (m, 2m)-critical-section check:
// once every instance has converged, the number of privilege grants stays
// within [m, 2m] forever.
func TestComposedSSRminGrantBounds(t *testing.T) {
	for m := 1; m <= 3; m++ {
		inner := core.New(5, 6)
		c := New[core.State](inner, m)
		rng := rand.New(rand.NewSource(int64(m)))

		// Start every instance legitimate but at staggered positions by
		// letting them run independently for different lengths first.
		parts := make([]statemodel.Config[core.State], m)
		for j := range parts {
			sim := statemodel.NewSimulator[core.State](inner, daemon.NewCentralLowest(), inner.InitialLegitimate())
			sim.Run(3 * j)
			parts[j] = sim.Config()
		}
		packed := c.Pack(parts...)

		d := daemon.NewRandomSubset(rng, 0.5)
		sim := statemodel.NewSimulator[MultiState[core.State]](c, d, packed)
		for step := 0; step < 500; step++ {
			if _, ok := sim.Step(); !ok {
				t.Fatal("deadlock")
			}
			g := c.Grants(sim.Config(), core.HasToken)
			if g < m || g > 2*m {
				t.Fatalf("m=%d step %d: %d grants outside [%d,%d]", m, step, g, m, 2*m)
			}
			holders := c.HoldersAny(sim.Config(), core.HasToken)
			if len(holders) < 1 || len(holders) > 2*m {
				t.Fatalf("m=%d: %d distinct holders", m, len(holders))
			}
		}
	}
}

// TestComposedSSRminSelfStabilizes starts all instances from garbage and
// verifies every projection converges to its own legitimate set.
func TestComposedSSRminSelfStabilizes(t *testing.T) {
	inner := core.New(4, 5)
	c := New[core.State](inner, 2)
	rng := rand.New(rand.NewSource(9))
	parts := make([]statemodel.Config[core.State], 2)
	for j := range parts {
		parts[j] = make(statemodel.Config[core.State], 4)
		for i := range parts[j] {
			parts[j][i] = core.State{X: rng.Intn(5), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		}
	}
	sim := statemodel.NewSimulator[MultiState[core.State]](c, daemon.NewRandomSubset(rng, 0.7), c.Pack(parts...))
	legitBoth := func(cfg statemodel.Config[MultiState[core.State]]) bool {
		for _, part := range c.Unpack(cfg) {
			if !inner.Legitimate(part) {
				return false
			}
		}
		return true
	}
	steps, ok := sim.RunUntil(legitBoth, 4*inner.ConvergenceStepBound())
	if !ok {
		t.Fatalf("composed system did not converge in %d steps", 4*inner.ConvergenceStepBound())
	}
	t.Logf("both instances legitimate after %d steps", steps)
}

func TestHoldersOf(t *testing.T) {
	inner := dijkstra.New(3, 4)
	c := New[dijkstra.State](inner, 2)
	packed := c.Pack(
		statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 0}}, // token at P0
		statemodel.Config[dijkstra.State]{{X: 1}, {X: 1}, {X: 0}}, // token at P2
	)
	if h := c.HoldersOf(packed, 0, dijkstra.HasToken); len(h) != 1 || h[0] != 0 {
		t.Errorf("instance 0 holders = %v", h)
	}
	if h := c.HoldersOf(packed, 1, dijkstra.HasToken); len(h) != 1 || h[0] != 2 {
		t.Errorf("instance 1 holders = %v", h)
	}
	if h := c.HoldersAny(packed, dijkstra.HasToken); len(h) != 2 {
		t.Errorf("HoldersAny = %v", h)
	}
	if g := c.Grants(packed, dijkstra.HasToken); g != 2 {
		t.Errorf("Grants = %d", g)
	}
}

func TestAllStatesProduct(t *testing.T) {
	inner := dijkstra.New(3, 4)
	c := New[dijkstra.State](inner, 2)
	states := c.AllStates()
	if len(states) != 16 {
		t.Fatalf("|states| = %d, want 16", len(states))
	}
	seen := map[MultiState[dijkstra.State]]bool{}
	for _, s := range states {
		if seen[s] {
			t.Fatalf("duplicate state %v", s)
		}
		seen[s] = true
	}
}

func TestApplyBadMaskPanics(t *testing.T) {
	inner := dijkstra.New(3, 4)
	c := New[dijkstra.State](inner, 2)
	cfg := c.Pack(
		statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 0}},
		statemodel.Config[dijkstra.State]{{X: 0}, {X: 0}, {X: 0}},
	)
	defer func() {
		if recover() == nil {
			t.Error("Apply accepted mask 0")
		}
	}()
	c.Apply(cfg.View(0), 0)
}
