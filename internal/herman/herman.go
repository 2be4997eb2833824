// Package herman implements Herman's probabilistic self-stabilizing token
// ring (Herman, 1990) as a third baseline: where Dijkstra's SSToken beats
// the unfair daemon with K > n counter values and SSRmin adds the graceful
// handover, Herman's ring uses one *bit* per process and randomization,
// converging to a single token with probability 1 under a synchronous
// scheduler (ring size must be odd).
//
// Process i holds a token iff x_i = x_{i-1}. In every synchronous round,
// each token holder flips a fair coin for its new bit while every other
// process copies its predecessor's bit. Tokens perform random walks and
// annihilate pairwise; since the token count is odd and never increases,
// exactly one survives. The expected convergence time is Θ(n²) (the known
// worst-case constant is 4/27·n² for three equidistant tokens).
//
// The experiments use it to situate SSRmin: probabilistic vs deterministic
// guarantees, 2 states vs 4K states per process, and — like SSToken — no
// mutual inclusion in the message-passing model.
package herman

import (
	"fmt"
	"math/rand"
)

// Ring is one instance of Herman's token ring.
type Ring struct {
	bits []bool
	rng  *rand.Rand
	// Steps counts synchronous rounds executed.
	Steps int
}

// New creates a ring of odd size n with all bits false — note that with
// all bits equal every process holds a token (the all-token configuration);
// use Randomize or SetBits for other starts. It panics on even or too
// small n.
func New(n int, seed int64) *Ring {
	if n < 3 || n%2 == 0 {
		panic(fmt.Sprintf("herman: ring size must be odd and ≥ 3, got %d", n))
	}
	return &Ring{bits: make([]bool, n), rng: rand.New(rand.NewSource(seed))}
}

// Randomize draws a uniformly random configuration.
func (r *Ring) Randomize() {
	for i := range r.bits {
		r.bits[i] = r.rng.Intn(2) == 1
	}
}

// HasToken reports whether process i holds a token: x_i = x_{i-1}.
func (r *Ring) HasToken(i int) bool {
	n := len(r.bits)
	return r.bits[i] == r.bits[(i-1+n)%n]
}

// Tokens returns the token-holding process indices. On an odd ring the
// count is always odd (and ≥ 1).
func (r *Ring) Tokens() []int {
	var out []int
	for i := range r.bits {
		if r.HasToken(i) {
			out = append(out, i)
		}
	}
	return out
}

// TokenCount returns the number of tokens.
func (r *Ring) TokenCount() int { return len(r.Tokens()) }

// Step executes one synchronous round: token holders flip coins, others
// copy their predecessor (all against the old configuration).
func (r *Ring) Step() {
	n := len(r.bits)
	next := make([]bool, n)
	for i := 0; i < n; i++ {
		if r.HasToken(i) {
			next[i] = r.rng.Intn(2) == 1
		} else {
			next[i] = r.bits[(i-1+n)%n]
		}
	}
	r.bits = next
	r.Steps++
}

// Stabilized reports whether exactly one token remains.
func (r *Ring) Stabilized() bool { return r.TokenCount() == 1 }

// RunUntilStable steps until a single token remains or maxSteps rounds
// elapse; it returns the rounds consumed by this call and success.
func (r *Ring) RunUntilStable(maxSteps int) (int, bool) {
	for s := 0; s < maxSteps; s++ {
		if r.Stabilized() {
			return s, true
		}
		r.Step()
	}
	return maxSteps, r.Stabilized()
}

// WorstCaseExpected returns the conjectured-tight worst-case expected
// convergence time 4n²/27 (three equidistant tokens), for report
// annotations.
func WorstCaseExpected(n int) float64 { return 4.0 * float64(n) * float64(n) / 27.0 }
