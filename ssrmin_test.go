package ssrmin

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestSimulationDefaults(t *testing.T) {
	s := NewSimulation(5)
	if s.Algorithm().N() != 5 || s.Algorithm().K() != 6 {
		t.Fatalf("defaults: n=%d K=%d", s.Algorithm().N(), s.Algorithm().K())
	}
	if !s.Legitimate() {
		t.Fatal("default initial configuration not legitimate")
	}
	if h := s.Holders(); len(h) != 1 || h[0] != 0 {
		t.Fatalf("Holders = %v", h)
	}
	n := s.Run(100)
	if n != 100 || s.Steps() != 100 {
		t.Fatalf("Run = %d, Steps = %d", n, s.Steps())
	}
	if !s.Legitimate() {
		t.Fatal("closure violated through facade")
	}
	tc := s.Census()
	if tc.Primary != 1 || tc.Secondary != 1 {
		t.Fatalf("census = %+v", tc)
	}
}

func TestSimulationConvergenceFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []Daemon{
		CentralDaemon(1), SynchronousDaemon(), DistributedDaemon(2, 0.5),
		AdversarialQuietDaemon(3), StarvingDaemon(4, 0, 2),
	} {
		alg := New(6, 8)
		init := RandomConfig(alg, rng)
		s := NewSimulation(6, WithK(8), WithDaemon(d), WithInitial(init))
		steps, ok := s.RunUntilLegitimate(alg.ConvergenceStepBound())
		if !ok {
			t.Fatalf("daemon %s: no convergence in %d steps from %v", d.Name(), alg.ConvergenceStepBound(), init)
		}
		// After convergence the invariant must hold through further steps.
		for i := 0; i < 50; i++ {
			s.Step()
			if c := s.Census(); c.Privileged < 1 || c.Privileged > 2 {
				t.Fatalf("daemon %s: census %+v after convergence (+%d)", d.Name(), c, i)
			}
		}
		_ = steps
	}
}

func TestSimulationTraceRendering(t *testing.T) {
	s := NewSimulation(5, WithRecording())
	s.Run(6)
	var b strings.Builder
	if err := s.RenderTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "PS") {
		t.Errorf("trace missing token letters:\n%s", b.String())
	}
	b.Reset()
	if err := s.RenderTokens(&b); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(b.String()), "\n")) != 8 {
		t.Errorf("token table rows:\n%s", b.String())
	}
	b.Reset()
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "step,process") {
		t.Error("CSV header missing")
	}
}

func TestSimulationWithoutRecordingErrors(t *testing.T) {
	s := NewSimulation(4)
	var b strings.Builder
	if err := s.RenderTrace(&b); err == nil {
		t.Error("RenderTrace without recording should error")
	}
	if err := s.RenderTokens(&b); err == nil {
		t.Error("RenderTokens without recording should error")
	}
	if err := s.WriteCSV(&b); err == nil {
		t.Error("WriteCSV without recording should error")
	}
}

func TestMPSimulationInvariant(t *testing.T) {
	m := NewMPSimulation(5, WithSeed(1))
	m.Run(3)
	tl := m.Timeline()
	if tl.MinCount() < 1 || tl.MaxCount() > 2 {
		t.Fatalf("census range [%d,%d]", tl.MinCount(), tl.MaxCount())
	}
	if m.RuleExecutions() == 0 || m.MessagesSent() == 0 {
		t.Fatal("no progress")
	}
}

func TestMPSimulationArbitraryStartStabilizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alg := New(5, 6)
	m := NewMPSimulation(5,
		WithSeed(2),
		WithInitial(RandomConfig(alg, rng)),
		WithIncoherentCaches(),
		WithLoss(0.05),
	)
	m.Run(40)
	if c := m.Census(); c < 1 || c > 2 {
		t.Fatalf("census after settling = %d", c)
	}
	if h := m.Holders(); len(h) == 0 {
		t.Fatal("no holders")
	}
}

func TestLiveRingEndToEnd(t *testing.T) {
	l := NewLiveRing(5,
		WithDelay(300*time.Microsecond),
		WithRefresh(2*time.Millisecond),
		WithSeed(5),
	)
	transitions := make(chan int, 1024)
	l.OnPrivilege(func(node int, privileged bool) {
		if privileged {
			select {
			case transitions <- node:
			default:
			}
		}
	})
	l.Start()
	defer l.Stop()
	stats := l.WatchCensus(200*time.Millisecond, 100*time.Microsecond)
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("live census out of bounds: %+v", stats)
	}
	if l.RuleExecutions() == 0 {
		t.Fatal("live ring made no progress")
	}
	if len(transitions) == 0 {
		t.Fatal("no privilege callbacks")
	}
}

func TestCountHelper(t *testing.T) {
	alg := New(4, 5)
	tc := Count(alg.InitialLegitimate())
	if tc.Privileged != 1 || tc.Primary != 1 || tc.Secondary != 1 {
		t.Fatalf("Count = %+v", tc)
	}
}

func TestSSTokenBaselineAccessors(t *testing.T) {
	d := NewSSToken(5, 6)
	cfg := d.InitialLegitimate()
	if !d.Legitimate(cfg) {
		t.Fatal("SSToken initial not legitimate")
	}
	if !DijkstraHasToken(cfg.View(0)) {
		t.Fatal("token should sit at P0")
	}
}

func TestMultiSimulationBounds(t *testing.T) {
	for m := 1; m <= 3; m++ {
		sim := NewMultiSimulation(6, m, DistributedDaemon(int64(m), 0.5))
		if sim.M() != m {
			t.Fatalf("M = %d", sim.M())
		}
		if !sim.Legitimate() {
			t.Fatalf("m=%d: staggered start not legitimate", m)
		}
		for s := 0; s < 300; s++ {
			if !sim.Step() {
				t.Fatal("deadlock")
			}
			g := sim.Grants()
			if g < m || g > 2*m {
				t.Fatalf("m=%d step %d: grants %d outside [%d,%d]", m, s, g, m, 2*m)
			}
			if h := sim.Holders(); len(h) == 0 {
				t.Fatalf("m=%d: no holders", m)
			}
		}
		if sim.Steps() != 300 {
			t.Fatalf("Steps = %d", sim.Steps())
		}
		cfgs := sim.InstanceConfigs()
		if len(cfgs) != m {
			t.Fatalf("InstanceConfigs = %d", len(cfgs))
		}
		for j := 0; j < m; j++ {
			if h := sim.HoldersOf(j); len(h) < 1 || len(h) > 2 {
				t.Fatalf("instance %d holders %v", j, h)
			}
		}
	}
}

func TestMultiSimulationHoldersOfValidation(t *testing.T) {
	sim := NewMultiSimulation(5, 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("HoldersOf(9) did not panic")
		}
	}()
	sim.HoldersOf(9)
}

func TestMPHoldAndDefaults(t *testing.T) {
	m := NewMPSimulation(5, WithSeed(1), WithHold(20*time.Millisecond))
	m.Run(5)
	tl := m.Timeline()
	if tl.MinCount() < 1 || tl.MaxCount() > 2 {
		t.Fatalf("census [%d,%d] with dwell", tl.MinCount(), tl.MaxCount())
	}
	// Dwell slows the rotation: with 20ms dwell per leg the rule rate is
	// bounded by ~3 legs / (3*hold) per advance.
	if m.RuleExecutions() > 5*60 {
		t.Fatalf("dwell apparently ignored: %d rules in 5s", m.RuleExecutions())
	}
	if m.Coherent() && m.Census() == 0 {
		t.Fatal("impossible state")
	}
}

func TestLiveIncoherentCaches(t *testing.T) {
	alg := New(5, 6)
	rng := rand.New(rand.NewSource(12))
	l := NewLiveRing(5,
		WithDelay(300*time.Microsecond),
		WithRefresh(2*time.Millisecond),
		WithSeed(13),
		WithInitial(RandomConfig(alg, rng)),
		WithIncoherentCaches(),
	)
	l.Start()
	defer l.Stop()
	time.Sleep(400 * time.Millisecond) // settle
	stats := l.WatchCensus(150*time.Millisecond, 100*time.Microsecond)
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("census %+v after settling from incoherent start", stats)
	}
}

func TestLiveInjectFacade(t *testing.T) {
	l := NewLiveRing(5,
		WithDelay(300*time.Microsecond),
		WithRefresh(2*time.Millisecond),
		WithSeed(14),
	)
	l.Start()
	defer l.Stop()
	time.Sleep(20 * time.Millisecond)
	if !l.Inject(2, State{X: 4, RTS: true, TRA: true}) {
		t.Fatal("injection dropped")
	}
	time.Sleep(200 * time.Millisecond)
	stats := l.WatchCensus(100*time.Millisecond, 100*time.Microsecond)
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("census %+v after facade injection", stats)
	}
}
