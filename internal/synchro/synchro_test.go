package synchro

import (
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/verify"
)

func newSSRminRing(n, k int, seed int64, loss float64) (*core.Algorithm, *Ring[core.State]) {
	a := core.New(n, k)
	r := NewRing[core.State](a, a.InitialLegitimate(),
		msgnet.LinkParams{Delay: 0.01, Jitter: 0.002, LossProb: loss}, 0.05, seed)
	return a, r
}

// TestLockstepMatchesSynchronousDaemon proves the synchronizer exact: the
// sequence of per-round state vectors equals a reference simulation under
// the synchronous daemon, round for round.
func TestLockstepMatchesSynchronousDaemon(t *testing.T) {
	a, r := newSSRminRing(5, 6, 1, 0)

	// Reference: synchronous daemon in the state-reading model.
	ref := statemodel.NewSimulator[core.State](a, daemon.Synchronous{}, a.InitialLegitimate())
	refAt := []statemodel.Config[core.State]{ref.Config()}
	for i := 0; i < 200; i++ {
		ref.Step()
		refAt = append(refAt, ref.Config())
	}

	// Track each node's state at each completed round.
	type snap struct {
		round int
		state core.State
	}
	history := make([][]snap, 5)
	for i, nd := range r.Nodes {
		history[i] = append(history[i], snap{0, nd.state})
	}
	r.Net.Observer = func(now msgnet.Time) {
		for i, nd := range r.Nodes {
			last := history[i][len(history[i])-1]
			if nd.Round() != last.round {
				history[i] = append(history[i], snap{nd.Round(), nd.state})
			}
		}
	}
	r.Net.Run(20)

	for i := range history {
		for _, s := range history[i] {
			if s.round >= len(refAt) {
				continue
			}
			if refAt[s.round][i] != s.state {
				t.Fatalf("node %d at round %d: %v, reference %v", i, s.round, s.state, refAt[s.round][i])
			}
		}
		if len(history[i]) < 20 {
			t.Fatalf("node %d completed only %d rounds in 20s", i, len(history[i]))
		}
	}
}

func TestRoundSkewBounded(t *testing.T) {
	_, r := newSSRminRing(6, 7, 3, 0.1)
	maxSkew := 0
	r.Net.Observer = func(now msgnet.Time) {
		if s := r.MaxRoundSkew(); s > maxSkew {
			maxSkew = s
		}
	}
	r.Net.Run(30)
	// Adjacent nodes differ by ≤1 round, so the skew around a ring of 6 is
	// at most 3.
	if maxSkew > 3 {
		t.Fatalf("round skew reached %d", maxSkew)
	}
	if r.MinRound() < 50 {
		t.Fatalf("only %d rounds completed under 10%% loss", r.MinRound())
	}
}

// TestProgressUnderLoss verifies retransmission drives rounds forward even
// with heavy loss.
func TestProgressUnderLoss(t *testing.T) {
	_, r := newSSRminRing(5, 6, 7, 0.4)
	r.Net.Run(60)
	if r.MinRound() < 10 {
		t.Fatalf("only %d rounds under 40%% loss", r.MinRound())
	}
	if r.RuleExecutions() == 0 {
		t.Fatal("no rules executed")
	}
}

// TestSSRminKeepsInvariantUnderSynchronizer: SSRmin's predicates stay in
// [1,2] under this transform as well.
func TestSSRminKeepsInvariantUnderSynchronizer(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		_, r := newSSRminRing(5, 6, seed, 0)
		mon := verify.Monitor{Bounds: verify.SSRminBounds}
		r.Net.Observer = func(now msgnet.Time) {
			mon.Observe(float64(now), r.Census(core.HasToken))
		}
		r.Net.Run(10)
		if len(mon.Violations) != 0 {
			t.Fatalf("seed %d: %v", seed, mon.Violations[0])
		}
	}
}

// TestDijkstraStillGapsUnderSynchronizer is the headline negative result:
// even the exact synchronizer leaves zero-token instants for the plain
// token ring — the model gap is in the predicates, not the scheduling.
func TestDijkstraStillGapsUnderSynchronizer(t *testing.T) {
	a := dijkstra.New(5, 6)
	r := NewRing[dijkstra.State](a, a.InitialLegitimate(),
		msgnet.LinkParams{Delay: 0.01, Jitter: 0.002}, 0.05, 2)
	var tl verify.Timeline
	r.Net.Observer = func(now msgnet.Time) {
		tl.Record(float64(now), r.Census(dijkstra.HasToken))
	}
	r.Net.Run(20)
	tl.Close(float64(r.Net.Now()))
	if tl.Duration(0) <= 0 {
		t.Fatal("expected zero-token instants for SSToken under the synchronizer")
	}
	t.Logf("SSToken under α-synchronizer: %.1f%% of time with zero tokens", 100*tl.Fraction(0))
}

func TestNodeValidation(t *testing.T) {
	a := core.New(3, 4)
	defer func() {
		if recover() == nil {
			t.Error("zero refresh accepted")
		}
	}()
	NewNode[core.State](a, 0, core.State{}, 0)
}

func TestRingValidation(t *testing.T) {
	a := core.New(3, 4)
	defer func() {
		if recover() == nil {
			t.Error("bad init length accepted")
		}
	}()
	NewRing[core.State](a, statemodel.Config[core.State]{{}}, msgnet.LinkParams{}, 0.05, 1)
}
