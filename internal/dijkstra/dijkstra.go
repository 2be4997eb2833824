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

// K returns the counter space size.
func (a *Algorithm) K() int { return a.k }

// Rules implements statemodel.Algorithm; SSToken has a single rule per
// process (D1 at the bottom, D2 elsewhere), so Rules() = 1.
func (a *Algorithm) Rules() int { return 1 }

// Guard evaluates G_i of the paper: the token condition of process v.I.
// For the bottom process it is x_i = x_{i-1}; for the others x_i ≠ x_{i-1}.
//
//rulecheck:guard dijkstra token
func Guard(v statemodel.View[State]) bool {
	return GuardX(v.I, v.Self.X, v.Pred.X)
}

// GuardX is Guard on bare counters: the token condition of process i with
// counter selfX whose predecessor shows predX. Embedding algorithms (core,
// compose) evaluate it on every guard check, so it skips the view struct.
//
//rulecheck:guard dijkstra token args=I,Self.X,Pred.X
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
//
//rulecheck:relation dijkstra
func (a *Algorithm) EnabledRule(v statemodel.View[State]) int {
	if Guard(v) {
		return 1
	}
	return 0
}

// Apply implements statemodel.Algorithm.
//
//rulecheck:relation dijkstra
func (a *Algorithm) Apply(v statemodel.View[State], rule int) State {
	if rule != 1 {
		panic(fmt.Sprintf("dijkstra: unknown rule %d", rule))
	}
	return Command(v, a.k)
}

// HasToken reports whether the process with view v holds the (unique, in
// legitimate configurations) token: it is exactly the guard G_i.
//
//rulecheck:guard dijkstra token
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

// StepDown returns the index of the unique token holder of a legitimate
// configuration, or -1 if c is not legitimate.
func (a *Algorithm) StepDown(c statemodel.Config[State]) int {
	h := a.TokenHolders(c)
	if len(h) != 1 {
		return -1
	}
	return h[0]
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

// Pair runs two independent SSToken instances side by side in one local
// state — the baseline of Figure 12: even with two tokens circulating
// independently, the message-passing model has instants with no token at
// all when both happen to be in flight.
type Pair struct {
	n, k int
}

// PairState carries the counters of both instances.
type PairState struct {
	// A is instance 1's counter, B instance 2's.
	A, B int
}

func (s PairState) String() string { return fmt.Sprintf("%d|%d", s.A, s.B) }

var _ statemodel.Algorithm[PairState] = (*Pair)(nil)

// NewPair returns two independent SSToken instances over one ring.
func NewPair(n, k int) *Pair {
	if n < 2 || k <= n {
		panic(fmt.Sprintf("dijkstra: invalid pair parameters n=%d K=%d", n, k))
	}
	return &Pair{n: n, k: k}
}

// Name implements statemodel.Algorithm.
func (p *Pair) Name() string { return fmt.Sprintf("sstoken-pair(n=%d,K=%d)", p.n, p.k) }

// UniformViews implements statemodel.PositionUniform: both component
// instances read the position only through Bottom().
func (p *Pair) UniformViews() {}

// N implements statemodel.Algorithm.
func (p *Pair) N() int { return p.n }

// Rules implements statemodel.Algorithm. Rule 1 moves instance A, rule 2
// instance B, rule 3 both at once; a process is enabled by the smallest
// rule covering exactly its enabled instances, so the rule priority
// convention of statemodel is preserved while both instances stay
// independent.
func (p *Pair) Rules() int { return 3 }

func (p *Pair) split(v statemodel.View[PairState]) (a, b statemodel.View[State]) {
	a = statemodel.View[State]{I: v.I, N: v.N, Self: State{v.Self.A}, Pred: State{v.Pred.A}, Succ: State{v.Succ.A}}
	b = statemodel.View[State]{I: v.I, N: v.N, Self: State{v.Self.B}, Pred: State{v.Pred.B}, Succ: State{v.Succ.B}}
	return a, b
}

// EnabledRule implements statemodel.Algorithm.
func (p *Pair) EnabledRule(v statemodel.View[PairState]) int {
	va, vb := p.split(v)
	ga, gb := Guard(va), Guard(vb)
	switch {
	case ga && gb:
		return 3
	case ga:
		return 1
	case gb:
		return 2
	}
	return 0
}

// Apply implements statemodel.Algorithm.
func (p *Pair) Apply(v statemodel.View[PairState], rule int) PairState {
	va, vb := p.split(v)
	next := v.Self
	if rule == 1 || rule == 3 {
		next.A = Command(va, p.k).X
	}
	if rule == 2 || rule == 3 {
		next.B = Command(vb, p.k).X
	}
	return next
}

// TokenHoldersA returns the indices holding instance A's token.
func (p *Pair) TokenHoldersA(c statemodel.Config[PairState]) []int {
	var holders []int
	for i := range c {
		va, _ := p.split(c.View(i))
		if Guard(va) {
			holders = append(holders, i)
		}
	}
	return holders
}

// TokenHoldersB returns the indices holding instance B's token.
func (p *Pair) TokenHoldersB(c statemodel.Config[PairState]) []int {
	var holders []int
	for i := range c {
		_, vb := p.split(c.View(i))
		if Guard(vb) {
			holders = append(holders, i)
		}
	}
	return holders
}

// AllStates enumerates the K² pair states.
func (p *Pair) AllStates() []PairState {
	out := make([]PairState, 0, p.k*p.k)
	for a := 0; a < p.k; a++ {
		for b := 0; b < p.k; b++ {
			out = append(out, PairState{A: a, B: b})
		}
	}
	return out
}
