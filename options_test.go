package ssrmin

import (
	"strings"
	"testing"

	"ssrmin/internal/obs"
)

// TestParseDaemonRegistry exercises the library-side daemon registry:
// every advertised name builds, and the error for an unknown name quotes
// it and lists all alternatives.
func TestParseDaemonRegistry(t *testing.T) {
	names := DaemonNames()
	if len(names) == 0 {
		t.Fatal("DaemonNames returned nothing")
	}
	for _, name := range names {
		d, err := ParseDaemon(name, 1, 0.5)
		if err != nil {
			t.Errorf("ParseDaemon(%q) = %v", name, err)
		}
		if d == nil {
			t.Errorf("ParseDaemon(%q) returned a nil daemon", name)
		}
	}
	for _, bad := range []string{"", "Central", "central ", "lottery"} {
		d, err := ParseDaemon(bad, 1, 0.5)
		if err == nil {
			t.Fatalf("ParseDaemon(%q) unexpectedly succeeded", bad)
		}
		if d != nil {
			t.Errorf("ParseDaemon(%q) returned a daemon alongside the error", bad)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseDaemon(%q) error %q does not list %q", bad, err, name)
			}
		}
	}
}

// TestParseDaemonDrivesSimulation checks a parsed daemon is usable as a
// WithDaemon argument and that the simulation built from it runs.
func TestParseDaemonDrivesSimulation(t *testing.T) {
	d, err := ParseDaemon("sync", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(5, WithDaemon(d))
	if got := s.Run(10); got != 10 {
		t.Fatalf("Run(10) = %d", got)
	}
}

// TestWithKZeroKeepsDefault pins the zero-value contract: WithK(0) is a
// no-op (K stays n+1).
func TestWithKZeroKeepsDefault(t *testing.T) {
	s := NewSimulation(5, WithK(0))
	if got := s.Algorithm().K(); got != 6 {
		t.Fatalf("WithK(0): K = %d, want the n+1 default 6", got)
	}
	m := NewMPSimulation(4, WithK(0))
	if got := m.alg.K(); got != 5 {
		t.Fatalf("WithK(0) on MPSimulation: K = %d, want 5", got)
	}
	l := NewLiveRing(3, WithK(0))
	if got := l.alg.K(); got != 4 {
		t.Fatalf("WithK(0) on LiveRing: K = %d, want 4", got)
	}
}

// TestWithKExplicit checks a real K lands, and that an illegal K ≤ n
// surfaces as the constructor's documented panic.
func TestWithKExplicit(t *testing.T) {
	s := NewSimulation(5, WithK(9))
	if got := s.Algorithm().K(); got != 9 {
		t.Fatalf("WithK(9): K = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithK(3) with n=5 did not panic")
		}
	}()
	NewSimulation(5, WithK(3))
}

// TestObserverSinkResolution pins the conflict rules of WithObserver and
// WithSink:
//
//   - WithSink alone creates an implicit observer wired to the sink.
//   - WithObserver alone installs exactly that observer.
//   - Both together: the explicit observer wins and the sink is attached
//     to it, so events still reach the sink.
func TestObserverSinkResolution(t *testing.T) {
	t.Run("sink-only", func(t *testing.T) {
		var events int
		s := NewSimulation(5, WithSink(obs.Func(func(obs.Event) { events++ })))
		o := s.Observer()
		if o == nil {
			t.Fatal("WithSink did not create an implicit observer")
		}
		s.Run(20)
		if events == 0 {
			t.Fatal("no events reached the sink")
		}
		if o.C.Steps.Load() == 0 {
			t.Fatal("implicit observer's counters were not fed")
		}
	})
	t.Run("observer-only", func(t *testing.T) {
		o := NewObserver(nil)
		s := NewSimulation(5, WithObserver(o))
		if s.Observer() != o {
			t.Fatal("WithObserver did not install the given observer")
		}
		s.Run(20)
		if o.C.Steps.Load() == 0 {
			t.Fatal("explicit observer's counters were not fed")
		}
	})
	t.Run("both", func(t *testing.T) {
		var events int
		o := NewObserver(nil)
		s := NewSimulation(5,
			WithObserver(o),
			WithSink(obs.Func(func(obs.Event) { events++ })))
		if s.Observer() != o {
			t.Fatal("explicit observer must win over an implicit one")
		}
		s.Run(20)
		if events == 0 {
			t.Fatal("sink was not attached to the explicit observer")
		}
	})
	t.Run("neither", func(t *testing.T) {
		if o := NewSimulation(5).Observer(); o != nil {
			t.Fatalf("Observer() = %v without WithObserver/WithSink, want nil", o)
		}
	})
}
