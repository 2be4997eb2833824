package ssrmin_test

// Cross-layer integration tests: the same algorithm core driven through
// every execution vehicle in one journey, checking that the guarantees
// compose — state-reading convergence feeding the message-passing
// simulation, the live ring, and the TCP deployment.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ssrmin"
)

// TestJourneyStateReadingToMessagePassing converges a garbage
// configuration in the state-reading model, hands the resulting legitimate
// configuration to the message-passing simulation as its initial state,
// and requires the MP census to stay within [1,2] from the very first
// instant — legitimacy survives the model change (Theorem 3's hypothesis
// is exactly "legitimate with coherent caches").
func TestJourneyStateReadingToMessagePassing(t *testing.T) {
	alg := ssrmin.New(6, 7)
	rng := rand.New(rand.NewSource(21))

	sim := ssrmin.NewSimulation(6, ssrmin.WithK(7),
		ssrmin.WithInitial(ssrmin.RandomConfig(alg, rng)),
		ssrmin.WithDaemon(ssrmin.DistributedDaemon(2, 0.5)))
	if _, ok := sim.RunUntilLegitimate(alg.ConvergenceStepBound()); !ok {
		t.Fatal("state-reading convergence failed")
	}
	legit := sim.Config()

	mp := ssrmin.NewMPSimulation(6, ssrmin.WithK(7), ssrmin.WithSeed(3), ssrmin.WithInitial(legit))
	mp.Run(10)
	tl := mp.Timeline()
	if tl.MinCount() < 1 || tl.MaxCount() > 2 {
		t.Fatalf("census [%d,%d] after handing a legitimate config to MP", tl.MinCount(), tl.MaxCount())
	}
}

// TestJourneyMPToLive runs the MP simulation from garbage until settled,
// then starts a live ring from the settled state vector and
// samples it — the configuration crosses from simulated to wall-clock time
// without losing the invariant.
func TestJourneyMPToLive(t *testing.T) {
	alg := ssrmin.New(5, 6)
	rng := rand.New(rand.NewSource(5))
	mp := ssrmin.NewMPSimulation(5,
		ssrmin.WithSeed(4),
		ssrmin.WithInitial(ssrmin.RandomConfig(alg, rng)),
		ssrmin.WithIncoherentCaches(),
	)
	mp.Run(30)
	settled := mp.States()

	live := ssrmin.NewLiveRing(5,
		ssrmin.WithDelay(300*time.Microsecond),
		ssrmin.WithRefresh(2*time.Millisecond),
		ssrmin.WithSeed(6),
		ssrmin.WithInitial(settled),
	)
	live.Start()
	defer live.Stop()
	stats := live.WatchCensus(200*time.Millisecond, 100*time.Microsecond)
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("live census %+v after settled MP handoff", stats)
	}
}

// TestAllVehiclesHoldInvariantConcurrently runs the three vehicles side by
// side (they are independent; this catches cross-talk through shared
// global state, of which there must be none).
func TestAllVehiclesHoldInvariantConcurrently(t *testing.T) {
	done := make(chan error, 3)

	go func() {
		sim := ssrmin.NewSimulation(5, ssrmin.WithDaemon(ssrmin.CentralDaemon(7)))
		for i := 0; i < 2000; i++ {
			sim.Step()
			if c := sim.Census(); c.Privileged < 1 || c.Privileged > 2 {
				done <- errf("state-reading census %d", c.Privileged)
				return
			}
		}
		done <- nil
	}()
	go func() {
		mp := ssrmin.NewMPSimulation(5, ssrmin.WithSeed(8))
		mp.Run(5)
		tl := mp.Timeline()
		if tl.MinCount() < 1 || tl.MaxCount() > 2 {
			done <- errf("MP census [%d,%d]", tl.MinCount(), tl.MaxCount())
			return
		}
		done <- nil
	}()
	go func() {
		live := ssrmin.NewLiveRing(5,
			ssrmin.WithDelay(300*time.Microsecond),
			ssrmin.WithRefresh(2*time.Millisecond),
			ssrmin.WithSeed(9),
		)
		live.Start()
		defer live.Stop()
		stats := live.WatchCensus(150*time.Millisecond, 100*time.Microsecond)
		if stats.Min < 1 || stats.Max > 2 {
			done <- errf("live census %+v", stats)
			return
		}
		done <- nil
	}()

	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPRingFacade is the end-to-end socket deployment through the public
// API, with a live fault in the middle.
func TestTCPRingFacade(t *testing.T) {
	ring, err := ssrmin.StartTCPRing(5, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Stop()
	if len(ring.Addrs()) != 5 {
		t.Fatalf("Addrs = %v", ring.Addrs())
	}
	time.Sleep(100 * time.Millisecond)

	visited := map[int]bool{}
	deadline := time.Now().Add(10 * time.Second)
	for len(visited) < 5 && time.Now().Before(deadline) {
		for _, h := range ring.Holders() {
			visited[h] = true
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(visited) != 5 {
		t.Fatalf("TCP circulation incomplete: %v", visited)
	}

	ring.Inject(2, ssrmin.State{X: 3, RTS: true, TRA: true})
	time.Sleep(300 * time.Millisecond)
	min, max := 1<<30, -1
	for i := 0; i < 400; i++ {
		c := ring.Census()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		time.Sleep(200 * time.Microsecond)
	}
	if min < 1 || max > 2 {
		t.Fatalf("TCP census [%d,%d] after fault", min, max)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
