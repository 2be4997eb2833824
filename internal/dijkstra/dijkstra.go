// Package dijkstra implements Dijkstra's self-stabilizing K-state token
// ring, called SSToken in the paper (Algorithm 1), together with its token
// predicate, its legitimacy predicate, and the two-independent-instances
// baseline of Figure 12.
//
// SSToken runs on a unidirectional ring: each process reads only its
// predecessor. We express it over the bidirectional View of
// internal/statemodel — the successor state is simply ignored — so that
// SSToken, SSRmin and their transformed versions share one framework.
//
// The algorithm (K > n):
//
//	bottom P_0:    if x_0 = x_{n-1}  then x_0 ← x_{n-1} + 1 mod K
//	other  P_i:    if x_i ≠ x_{i-1}  then x_i ← x_{i-1}
//
// A process holds the token iff its guard holds. In legitimate
// configurations exactly one process holds the token and the token
// circulates the ring forever.
package dijkstra

import (
	"fmt"

	"ssrmin/internal/statemodel"
)

// State is the local state of a process: the single counter x_i in
// {0, …, K−1}.
type State struct {
	// X is the K-state counter.
	X int
}

func (s State) String() string { return fmt.Sprintf("%d", s.X) }

// Algorithm is an SSToken instance for a ring of n processes with counter
// space K.
type Algorithm struct {
	n, k int
}

var _ statemodel.Algorithm[State] = (*Algorithm)(nil)

// New returns an SSToken instance. It panics unless n ≥ 2 and K > n — the
// paper's requirement for self-stabilization under the distributed daemon.
func New(n, k int) *Algorithm {
	if n < 2 {
		panic(fmt.Sprintf("dijkstra: ring size %d < 2", n))
	}
	if k <= n {
		panic(fmt.Sprintf("dijkstra: K=%d must exceed n=%d", k, n))
	}
	return &Algorithm{n: n, k: k}
}

// Name implements statemodel.Algorithm.
func (a *Algorithm) Name() string { return fmt.Sprintf("sstoken(n=%d,K=%d)", a.n, a.k) }

// UniformViews implements statemodel.PositionUniform: the bottom runs D1,
// everyone else D2, and neither reads I or N beyond Bottom().
func (a *Algorithm) UniformViews() {}

// ShiftOrbit implements statemodel.DigitShift: the state index is x,
// the guards compare counters for equality and the command copies or
// increments one, so adding c mod K to every counter is a symmetry of
// order K.
func (a *Algorithm) ShiftOrbit() int { return a.k }

// N implements statemodel.Algorithm.
func (a *Algorithm) N() int { return a.n }

// Rules implements statemodel.Algorithm; SSToken has a single rule per
// process (D1 at the bottom, D2 elsewhere), so Rules() = 1.
func (a *Algorithm) Rules() int { return 1 }

// Guard evaluates G_i of the paper: the token condition of process v.I.
// For the bottom process it is x_i = x_{i-1}; for the others x_i ≠ x_{i-1}.
func Guard(v statemodel.View[State]) bool {
	return GuardX(v.I, v.Self.X, v.Pred.X)
}

// GuardX is Guard on bare counters: the token condition of process i with
// counter selfX whose predecessor shows predX. Embedding algorithms (core,
// compose) evaluate it on every guard check, so it skips the view struct.
func GuardX(i, selfX, predX int) bool {
	if i == 0 {
		return selfX == predX
	}
	return selfX != predX
}

// Command evaluates C_i of the paper and returns the new local state:
// x_{i-1}+1 mod K at the bottom, a copy of x_{i-1} elsewhere.
func Command(v statemodel.View[State], k int) State {
	if v.Bottom() {
		return State{X: (v.Pred.X + 1) % k}
	}
	return State{X: v.Pred.X}
}

// EnabledRule implements statemodel.Algorithm.
func (a *Algorithm) EnabledRule(v statemodel.View[State]) int {
	if Guard(v) {
		return 1
	}
	return 0
}

// Apply implements statemodel.Algorithm.
func (a *Algorithm) Apply(v statemodel.View[State], rule int) State {
	if rule != 1 {
		panic(fmt.Sprintf("dijkstra: unknown rule %d", rule))
	}
	return Command(v, a.k)
}

// HasToken reports whether the process with view v holds the (unique, in
// legitimate configurations) token: it is exactly the guard G_i.
func HasToken(v statemodel.View[State]) bool { return Guard(v) }

// TokenHolders returns the indices of all token-holding processes of c.
func (a *Algorithm) TokenHolders(c statemodel.Config[State]) []int {
	var holders []int
	for i := range c {
		if HasToken(c.View(i)) {
			holders = append(holders, i)
		}
	}
	return holders
}

// SingleToken reports whether exactly one process holds the token in c.
// This weaker predicate is the usual mutual-exclusion measure; it is
// closed under transitions but slightly larger than the canonical
// legitimate set of Section 2.3 (a lone token may still sit on a step of
// height ≠ 1, which collapses within one move).
func (a *Algorithm) SingleToken(c statemodel.Config[State]) bool {
	return len(a.TokenHolders(c)) == 1
}

// Legitimate reports whether c is a legitimate configuration of SSToken in
// the strict sense of Section 2.3: for some x, c = (x, …, x) — token at
// the bottom — or c = (x+1, …, x+1, x, …, x) with 1 ≤ ℓ ≤ n−1 leading x+1
// values (mod K) — token at the step.
func (a *Algorithm) Legitimate(c statemodel.Config[State]) bool {
	h := a.TokenHolders(c)
	if len(h) != 1 {
		return false
	}
	if h[0] == 0 {
		return true // all values equal
	}
	return c[0].X == (c[h[0]].X+1)%a.k
}

// InitialLegitimate returns the all-zero configuration, which is legitimate
// with the token at the bottom process.
func (a *Algorithm) InitialLegitimate() statemodel.Config[State] {
	return make(statemodel.Config[State], a.n)
}

// AllStates enumerates the K local states; the exhaustive model checker
// uses it to walk the full configuration space.
func (a *Algorithm) AllStates() []State {
	out := make([]State, a.k)
	for x := 0; x < a.k; x++ {
		out[x] = State{X: x}
	}
	return out
}

// ConvergenceBound returns 3n(n−1)/2, the upper bound on SSToken's
// convergence time under the unfair distributed daemon proven in
// Altisen–Devismes–Dubois–Petit (2019), which Lemma 8 of the paper relies
// on.
func (a *Algorithm) ConvergenceBound() int { return 3 * a.n * (a.n - 1) / 2 }
