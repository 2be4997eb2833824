package fault

import (
	"math/rand"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/verify"
)

func drawSSRmin(k int) func(*rand.Rand) core.State {
	return func(rng *rand.Rand) core.State {
		return core.State{X: rng.Intn(k), RTS: rng.Intn(2) == 0, TRA: rng.Intn(2) == 0}
	}
}

func TestCorruptConfig(t *testing.T) {
	in := NewInjector(1)
	a := core.New(6, 7)
	cfg := a.InitialLegitimate()
	orig := cfg.Clone()
	hit := CorruptConfig[core.State](in, cfg, 3, drawSSRmin(7))
	if len(hit) != 3 {
		t.Fatalf("hit %d entries, want 3", len(hit))
	}
	seen := map[int]bool{}
	for _, i := range hit {
		if seen[i] {
			t.Fatalf("index %d corrupted twice", i)
		}
		seen[i] = true
	}
	// Untouched entries must be identical.
	for i := range cfg {
		if !seen[i] && cfg[i] != orig[i] {
			t.Errorf("index %d changed without being hit", i)
		}
	}
	// Clamping.
	if got := CorruptConfig[core.State](in, cfg, 100, drawSSRmin(7)); len(got) != len(cfg) {
		t.Errorf("clamp failed: %d", len(got))
	}
}

func TestCorruptStatesAndCaches(t *testing.T) {
	a := core.New(5, 6)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link: msgnet.LinkParams{Delay: 0.01}, Refresh: 0.05, Seed: 1, CoherentCaches: true,
	})
	in := NewInjector(2)
	CorruptStates[core.State](in, r, 2, drawSSRmin(6))
	CorruptCaches[core.State](in, r, 4, drawSSRmin(6))
	// The ring is now (very likely) incoherent; more importantly, it must
	// re-stabilize: run and check the trailing window.
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		if now >= 20 {
			tl.Record(float64(now), r.Census(core.HasToken))
		}
	}
	r.Net.Run(40)
	tl.Close(float64(r.Net.Now()))
	if min := tl.MinCount(); min < 1 {
		t.Fatalf("no re-stabilization after corruption: min=%d", min)
	}
	if max := tl.MaxCount(); max > 2 {
		t.Fatalf("token bound broken after settling: max=%d", max)
	}
}

// TestSelfStabilizationAfterRepeatedFaults hammers the ring with periodic
// state corruption and verifies it always returns to the 1–2 token regime
// between hits.
func TestSelfStabilizationAfterRepeatedFaults(t *testing.T) {
	a := core.New(5, 6)
	r := cst.NewRing[core.State](a, a.InitialLegitimate(), cst.Options[core.State]{
		Link: msgnet.LinkParams{Delay: 0.01, Jitter: 0.002}, Refresh: 0.05, Seed: 4, CoherentCaches: true,
	})
	in := NewInjector(5)
	for round := 0; round < 5; round++ {
		CorruptStates[core.State](in, r, 2, drawSSRmin(6))
		CorruptCaches[core.State](in, r, 2, drawSSRmin(6))
		// Let it settle, then verify a clean observation window.
		settleUntil := r.Net.Now() + 20
		r.Net.Observer = nil
		r.Net.Run(settleUntil)
		var tl verify.Timeline
		r.Net.Observer = func(now msgnet.Time) {
			tl.Record(float64(now), r.Census(core.HasToken))
		}
		end := r.Net.Now() + 5
		r.Net.Run(end)
		tl.Close(float64(r.Net.Now()))
		if min := tl.MinCount(); min < 1 {
			t.Fatalf("round %d: min=%d after settling", round, min)
		}
		if max := tl.MaxCount(); max > 2 {
			t.Fatalf("round %d: max=%d after settling", round, max)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a := core.New(6, 7)
	run := func() statemodel.Config[core.State] {
		in := NewInjector(42)
		cfg := a.InitialLegitimate()
		CorruptConfig[core.State](in, cfg, 4, drawSSRmin(7))
		return cfg
	}
	if !slices.Equal(run(), run()) {
		t.Error("same-seed injectors diverged")
	}
}
