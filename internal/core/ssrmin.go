// Package core implements SSRmin, the self-stabilizing mutual inclusion
// algorithm of Kakugawa–Kamei–Katayama (IJNC 2022, Algorithm 3).
//
// SSRmin circulates two tokens on a bidirectional ring "like an inchworm":
//
//   - The primary token is the token of Dijkstra's K-state ring (SSToken):
//     process P_i holds it iff the Dijkstra guard G_i holds. It is the tail
//     of the inchworm and only advances once the head has moved on.
//   - The secondary token is the head. Its position is encoded by two
//     handshake bits per process: rts_i ("ready to send") and tra_i
//     ("token receipt acknowledged").
//
// A full position advance takes three rule executions (Figure 2):
//
//	Rule 1 (α₁) at P_i:   G_i ∧ rts.tra ∈ {0.0, 0.1, 1.1}      → 1.0
//	Rule 3 (β)  at P_i+1: ¬G ∧ pred=1.0 ∧ rts.tra ∈ {0.0,1.0,1.1} → 0.1
//	Rule 2 (α₂) at P_i:   G_i ∧ rts.tra=1.0 ∧ succ=0.1          → 0.0; C_i
//
// Rules 4 and 5 repair locally inconsistent states so that the algorithm
// converges from arbitrary configurations. Rule numbers are priorities:
// each process is enabled by at most one rule (the smallest).
//
// In legitimate configurations (Definition 1) the number of privileged
// processes is at least one and at most two, and the two holders are the
// same process or ring neighbors — that is mutual inclusion, and also a
// solution of the (1,2)-critical-section problem.
package core

import (
	"fmt"
	"math/rand"

	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// State is the local state of an SSRmin process: the Dijkstra counter plus
// the two handshake bits.
type State struct {
	// X is the Dijkstra K-state counter in {0, …, K−1}.
	X int
	// RTS is the "ready to send the secondary token" bit.
	RTS bool
	// TRA is the "token receipt acknowledged" bit.
	TRA bool
}

// String renders the paper's x.rts.tra notation, e.g. "3.1.0".
func (s State) String() string {
	return fmt.Sprintf("%d.%d.%d", s.X, bit(s.RTS), bit(s.TRA))
}

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Flags packs (rts, tra) for pattern matching against the paper's ⟨r.t⟩
// notation.
func (s State) Flags() (rts, tra bool) { return s.RTS, s.TRA }

// Rule numbers of Algorithm 3. Smaller numbers have higher priority.
const (
	// RuleReadySecondary is Rule 1 (abstract action α₁): announce the
	// secondary token to the successor.
	RuleReadySecondary = 1
	// RuleSendPrimary is Rule 2 (abstract action α₂): move the primary
	// token by executing the Dijkstra command.
	RuleSendPrimary = 2
	// RuleRecvSecondary is Rule 3 (abstract action β): acknowledge receipt
	// of the secondary token from the predecessor.
	RuleRecvSecondary = 3
	// RuleFixG is Rule 4: repair an inconsistent local state while holding
	// the primary token (also executes the Dijkstra command).
	RuleFixG = 4
	// RuleFixNoG is Rule 5: repair an inconsistent local state while not
	// holding the primary token.
	RuleFixNoG = 5
)

// RuleName returns a short mnemonic for a rule number.
func RuleName(rule int) string {
	switch rule {
	case RuleReadySecondary:
		return "R1/ready-secondary"
	case RuleSendPrimary:
		return "R2/send-primary"
	case RuleRecvSecondary:
		return "R3/recv-secondary"
	case RuleFixG:
		return "R4/fix-with-G"
	case RuleFixNoG:
		return "R5/fix-without-G"
	}
	return fmt.Sprintf("R%d/unknown", rule)
}

// Algorithm is an SSRmin instance for a ring of n ≥ 3 processes with
// Dijkstra counter space K > n.
type Algorithm struct {
	n, k int
}

var _ statemodel.Algorithm[State] = (*Algorithm)(nil)

// New returns an SSRmin instance. It panics unless n ≥ 3 and K > n, the
// constants required by Algorithm 3.
func New(n, k int) *Algorithm {
	if n < 3 {
		panic(fmt.Sprintf("core: SSRmin requires n ≥ 3, got %d", n))
	}
	if k <= n {
		panic(fmt.Sprintf("core: SSRmin requires K > n, got K=%d n=%d", k, n))
	}
	return &Algorithm{n: n, k: k}
}

// Name implements statemodel.Algorithm.
func (a *Algorithm) Name() string { return fmt.Sprintf("ssrmin(n=%d,K=%d)", a.n, a.k) }

// UniformViews implements statemodel.PositionUniform: every guard and
// command of Algorithm 3 reads the position only through Bottom() (via the
// embedded Dijkstra guard), so the model checker may compile SSRmin into
// per-class transition tables.
func (a *Algorithm) UniformViews() {}

// ShiftOrbit implements statemodel.DigitShift: AllStates is x-major
// (index x·4 + flags), the rules read x only through the embedded
// Dijkstra guard and command, and Definition 1 holds for some x, so
// adding c mod K to every counter is a symmetry of order K.
func (a *Algorithm) ShiftOrbit() int { return a.k }

// N implements statemodel.Algorithm.
func (a *Algorithm) N() int { return a.n }

// K returns the Dijkstra counter space size.
func (a *Algorithm) K() int { return a.k }

// Rules implements statemodel.Algorithm.
func (a *Algorithm) Rules() int { return 5 }

// dview projects an SSRmin view onto the embedded Dijkstra instance.
func dview(v statemodel.View[State]) statemodel.View[dijkstra.State] {
	return statemodel.View[dijkstra.State]{
		I:    v.I,
		N:    v.N,
		Self: dijkstra.State{X: v.Self.X},
		Pred: dijkstra.State{X: v.Pred.X},
		Succ: dijkstra.State{X: v.Succ.X},
	}
}

// G evaluates the Dijkstra guard G_i — the primary-token condition — on v.
func G(v statemodel.View[State]) bool { return dijkstra.GuardX(v.I, v.Self.X, v.Pred.X) }

// EnabledRule implements statemodel.Algorithm: it returns the smallest rule
// of Algorithm 3 whose guard holds, or 0.
func (a *Algorithm) EnabledRule(v statemodel.View[State]) int {
	g := G(v)
	sR, sT := v.Self.Flags()
	pR, pT := v.Pred.Flags()
	nR, nT := v.Succ.Flags()

	if g {
		// Rule 1: self ∈ {⟨0.0⟩, ⟨0.1⟩, ⟨1.1⟩}.
		if (!sR && !sT) || (!sR && sT) || (sR && sT) {
			return RuleReadySecondary
		}
		// Rule 2: self = ⟨1.0⟩ ∧ succ = ⟨0.1⟩.
		if sR && !sT && !nR && nT {
			return RuleSendPrimary
		}
		// Rule 4: triple ≠ ⟨0.0, 1.0, 0.0⟩. Reaching here means
		// self = ⟨1.0⟩, so the exception is pred = ⟨0.0⟩ ∧ succ = ⟨0.0⟩.
		if !(!pR && !pT && !nR && !nT) {
			return RuleFixG
		}
		return 0
	}

	// ¬G_i below.
	// Rule 3: pred = ⟨1.0⟩ ∧ self ∈ {⟨0.0⟩, ⟨1.0⟩, ⟨1.1⟩}.
	if pR && !pT {
		if (!sR && !sT) || (sR && !sT) || (sR && sT) {
			return RuleRecvSecondary
		}
	}
	// Rule 5: triple ≠ ⟨1.0, 0.1, ?.?⟩ ∧ self ≠ ⟨0.0⟩.
	if !sR && !sT {
		return 0
	}
	if pR && !pT && !sR && sT {
		return 0
	}
	return RuleFixNoG
}

// Apply implements statemodel.Algorithm.
func (a *Algorithm) Apply(v statemodel.View[State], rule int) State {
	next := v.Self
	switch rule {
	case RuleReadySecondary:
		next.RTS, next.TRA = true, false
	case RuleSendPrimary:
		next.RTS, next.TRA = false, false
		next.X = dijkstra.Command(dview(v), a.k).X
	case RuleRecvSecondary:
		next.RTS, next.TRA = false, true
	case RuleFixG:
		next.RTS, next.TRA = false, false
		next.X = dijkstra.Command(dview(v), a.k).X
	case RuleFixNoG:
		next.RTS, next.TRA = false, false
	default:
		panic(fmt.Sprintf("core: unknown rule %d", rule))
	}
	return next
}

// HasPrimary reports whether the process with view v holds the primary
// token: the condition is G_i (Algorithm 3, line 37).
func HasPrimary(v statemodel.View[State]) bool { return G(v) }

// HasSecondary reports whether the process with view v holds the secondary
// token (Algorithm 3, lines 38–40):
//
//	tra_i = 1  ∨  (rts_i = 1 ∧ rts_{i+1} = 0 ∧ tra_{i+1} = 0)
//
// The second disjunct is what makes the algorithm model gap tolerant: the
// secondary token does not vanish while the successor has not yet
// acknowledged it, even when local states are observed through stale
// caches in the message-passing model (Section 5).
func HasSecondary(v statemodel.View[State]) bool {
	if v.Self.TRA {
		return true
	}
	return v.Self.RTS && !v.Succ.RTS && !v.Succ.TRA
}

// HasToken reports whether the process holds the primary or the secondary
// token — the privilege of the mutual inclusion problem.
func HasToken(v statemodel.View[State]) bool { return HasPrimary(v) || HasSecondary(v) }

// PrimaryHolders returns the indices of processes holding the primary
// token in c.
func (a *Algorithm) PrimaryHolders(c statemodel.Config[State]) []int {
	var out []int
	for i := range c {
		if HasPrimary(c.View(i)) {
			out = append(out, i)
		}
	}
	return out
}

// SecondaryHolders returns the indices of processes holding the secondary
// token in c.
func (a *Algorithm) SecondaryHolders(c statemodel.Config[State]) []int {
	var out []int
	for i := range c {
		if HasSecondary(c.View(i)) {
			out = append(out, i)
		}
	}
	return out
}

// TokenHolders returns the indices of privileged processes (primary or
// secondary token) in c.
func (a *Algorithm) TokenHolders(c statemodel.Config[State]) []int {
	var out []int
	for i := range c {
		if HasToken(c.View(i)) {
			out = append(out, i)
		}
	}
	return out
}

// Legitimate reports whether c is legitimate per Definition 1. The
// definition enumerates, for some x, the forms
//
//	(x.0.1, x.0.0, …)                              P_0 holds both tokens
//	(x.1.0, x.0.0, …)                              P_0 holds both tokens
//	(x.1.0, x.0.1, x.0.0, …)                       P at 0, S at 1
//	(x+1.0.0, …, x+1.0.0, x.0.1, x.0.0, …)         P_i holds both
//	(x+1.0.0, …, x+1.0.0, x.1.0, x.0.0, …)         P_i holds both
//	(x+1.0.0, …, x.1.0, x.0.1, x.0.0, …)           P at i, S at i+1 (mod n)
//
// Structurally: the x-vector is a legitimate Dijkstra configuration with
// unique token holder h, and the handshake bits are all ⟨0.0⟩ except that
// either h has ⟨0.1⟩ or ⟨1.0⟩, or h has ⟨1.0⟩ and its successor has ⟨0.1⟩.
// At most two processes carry a handshake bit, so a third one rejects c
// before the holder scan; most configurations fail that way (918 of every
// 1024 at n=5).
func (a *Algorithm) Legitimate(c statemodel.Config[State]) bool {
	if len(c) != a.n {
		return false
	}
	flagged := 0
	for _, s := range c {
		if s.RTS || s.TRA {
			if flagged++; flagged > 2 {
				return false
			}
		}
	}
	h := a.dijkstraHolder(c)
	if h < 0 {
		return false
	}
	succ := (h + 1) % a.n
	// Classify the handshake bits of h and succ; everybody else must be
	// ⟨0.0⟩.
	for i, s := range c {
		if i == h || i == succ {
			continue
		}
		if s.RTS || s.TRA {
			return false
		}
	}
	hs, ss := c[h], c[succ]
	switch {
	case !hs.RTS && hs.TRA && !ss.RTS && !ss.TRA:
		return true // h = ⟨0.1⟩: both tokens at h.
	case hs.RTS && !hs.TRA && !ss.RTS && !ss.TRA:
		return true // h = ⟨1.0⟩: both tokens at h (announced).
	case hs.RTS && !hs.TRA && !ss.RTS && ss.TRA:
		return true // h = ⟨1.0⟩, succ = ⟨0.1⟩: P at h, S at succ.
	}
	return false
}

// dijkstraHolder returns the unique Dijkstra token holder of the x-part of
// c, or -1 if the x-part is not a legitimate Dijkstra configuration of the
// strict form of Section 2.3: (x, …, x) or (x+1, …, x+1, x, …, x). Merely
// having a single token is not enough — Definition 1 requires the step to
// be exactly one (mod K).
func (a *Algorithm) dijkstraHolder(c statemodel.Config[State]) int {
	holder := -1
	for i := range c {
		if G(c.View(i)) {
			if holder >= 0 {
				return -1 // a second guard: not a single token
			}
			holder = i
		}
	}
	if holder > 0 && c[0].X != (c[holder].X+1)%a.k {
		// Single token but the prefix is not exactly x+1: the x-part has
		// not yet collapsed to the paper's legitimate form.
		return -1
	}
	return holder
}

// InitialLegitimate returns the canonical legitimate configuration
// γ0 = (0.0.1, 0.0.0, …, 0.0.0): both tokens at the bottom process.
func (a *Algorithm) InitialLegitimate() statemodel.Config[State] {
	c := make(statemodel.Config[State], a.n)
	c[0] = State{X: 0, RTS: false, TRA: true}
	return c
}

// RandomState draws an arbitrary local state: X uniform in {0, …, K−1},
// then RTS, then TRA, each a fair coin. Every executor draws its random
// starts and fault states here, in this order, so seeded runs agree.
func (a *Algorithm) RandomState(rng *rand.Rand) State {
	return State{X: rng.Intn(a.k), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
}

// LegitimateConfigs enumerates every legitimate configuration (Definition
// 1): 3·n·K configurations in total — for each of the K values of x and
// each of the n positions of the primary token, the three handshake
// patterns.
func (a *Algorithm) LegitimateConfigs() []statemodel.Config[State] {
	var out []statemodel.Config[State]
	for x := 0; x < a.k; x++ {
		for h := 0; h < a.n; h++ {
			for pattern := 0; pattern < 3; pattern++ {
				c := make(statemodel.Config[State], a.n)
				// x-part: P_0 … P_{h-1} have x+1, P_h … P_{n-1} have x.
				// For h = 0 everybody has x (token at bottom).
				for i := 0; i < a.n; i++ {
					if i < h {
						c[i].X = (x + 1) % a.k
					} else {
						c[i].X = x
					}
				}
				succ := (h + 1) % a.n
				switch pattern {
				case 0: // both at h, acknowledged: h = ⟨0.1⟩
					c[h].TRA = true
				case 1: // both at h, announced: h = ⟨1.0⟩
					c[h].RTS = true
				case 2: // P at h, S at succ: h = ⟨1.0⟩, succ = ⟨0.1⟩
					c[h].RTS = true
					c[succ].TRA = true
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// AllStates enumerates the 4K local states (Theorem 1: the number of
// states per process is 4K). The exhaustive model checker uses it.
func (a *Algorithm) AllStates() []State {
	out := make([]State, 0, 4*a.k)
	for x := 0; x < a.k; x++ {
		for _, rts := range []bool{false, true} {
			for _, tra := range []bool{false, true} {
				out = append(out, State{X: x, RTS: rts, TRA: tra})
			}
		}
	}
	return out
}

// ConvergenceStepBound returns a concrete O(n²) step budget within which
// SSRmin is expected to converge from any configuration under any daemon.
// Lemma 7 gives 3n² + 4 once the Dijkstra part has converged, and Lemma 8
// bounds the Dijkstra part by a constant factor of n²; the constants of
// the paper's proof (T₁ = 3(L+1)Mn² with L = 9, M = 2) give 60n² + 3n² + 4.
// The experiments use this as a hard cap and record the much smaller
// observed maxima.
func (a *Algorithm) ConvergenceStepBound() int { return 63*a.n*a.n + 4 }

// HasSecondaryNaive is the rejected secondary-token condition discussed in
// Section 3.1: "one may think that a condition tra_i = 1 will suffice".
// Under it the secondary token goes extinct whenever the two tokens are
// virtually co-located (after Rule 1 sets ⟨1.0⟩ and before Rule 3 acks):
// harmless in the state-reading model, where the primary token covers the
// census, but the secondary token itself vanishes for whole transient
// periods in the message-passing model. SSRmin's actual condition
// (HasSecondary) adds the ⟨1.?, 0.0⟩ disjunct exactly to close that hole.
// The "secondary" experiment quantifies the difference.
func HasSecondaryNaive(v statemodel.View[State]) bool { return v.Self.TRA }
