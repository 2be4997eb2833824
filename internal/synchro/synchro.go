// Package synchro is an α-synchronizer transform: the heavyweight
// alternative to the cached sensornet transform for executing a
// state-reading-model algorithm in a message-passing network.
//
// Execution proceeds in rounds. In round r every node broadcasts its
// round-r state to both neighbors, waits until it knows both neighbors'
// round-r states, then executes its enabled rule (if any) against that
// consistent view and advances to round r+1 — exactly the synchronous
// distributed daemon of the state-reading model, simulated with messages.
// Each broadcast piggybacks the previous round's state so that a neighbor
// that is one round behind (after a lost or suppressed frame) can still
// assemble its view; a retransmission timer makes every round eventually
// complete under message loss.
//
// The point of this package is the experiment it powers: even this exact,
// expensive simulation of the state-reading model does NOT give mutual
// inclusion for a plain token ring — between the instants at which
// neighboring nodes apply their round-r rules, an observer (and the nodes
// themselves, through their latest known neighbor states) still passes
// through zero-token configurations. The model gap is in the *predicates*,
// not the scheduler; that is why the paper fixes it with token conditions
// (SSRmin) rather than with a stronger transformation. See Section 1.3 and
// the "transforms" experiment.
package synchro

import (
	"fmt"

	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
)

// packet is the round message: the sender's current round and state, plus
// its previous round's state for late neighbors.
type packet[S comparable] struct {
	Round int
	State S
	Prev  S
}

// Node is one α-synchronized process.
type Node[S comparable] struct {
	alg     statemodel.Algorithm[S]
	id, n   int
	round   int
	state   S
	prev    S
	refresh msgnet.Time

	// roundState[k] holds neighbor k's state for the round it is keyed
	// by; entries for rounds below the node's own round are garbage
	// collected on advance.
	roundState map[int]map[int]S // neighbor -> round -> state
	// latest[k] is neighbor k's newest known state (any round) — the
	// "cache" the token predicates read.
	latest map[int]S
	// latestRound[k] is the round of latest[k].
	latestRound map[int]int

	// Rounds counts completed rounds; RuleExecutions counts applied rules.
	Rounds         int
	RuleExecutions int
}

const timerResend = 1

// NewNode creates a synchronized node at round 0.
func NewNode[S comparable](alg statemodel.Algorithm[S], id int, init S, refresh msgnet.Time) *Node[S] {
	if refresh <= 0 {
		panic("synchro: refresh must be positive")
	}
	return &Node[S]{
		alg:         alg,
		id:          id,
		n:           alg.N(),
		state:       init,
		prev:        init,
		refresh:     refresh,
		roundState:  map[int]map[int]S{},
		latest:      map[int]S{},
		latestRound: map[int]int{},
	}
}

func (nd *Node[S]) pred() int { return (nd.id - 1 + nd.n) % nd.n }
func (nd *Node[S]) succ() int { return (nd.id + 1) % nd.n }

// Round returns the node's current round number.
func (nd *Node[S]) Round() int { return nd.round }

// View returns the node's view through its latest known neighbor states —
// what its token predicates can actually observe.
func (nd *Node[S]) View() statemodel.View[S] {
	return statemodel.View[S]{
		I:    nd.id,
		N:    nd.n,
		Self: nd.state,
		Pred: nd.latest[nd.pred()],
		Succ: nd.latest[nd.succ()],
	}
}

// SeedLatest initializes the latest-known neighbor states (for census
// continuity before the first packets arrive).
func (nd *Node[S]) SeedLatest(pred, succ S) {
	nd.latest[nd.pred()] = pred
	nd.latest[nd.succ()] = succ
}

// Start implements msgnet.Handler.
func (nd *Node[S]) Start(ctx *msgnet.Context[packet[S]]) {
	nd.broadcast(ctx)
	phase := msgnet.Time(ctx.Rand().Float64()) * nd.refresh
	ctx.After(phase, timerResend)
}

// Receive implements msgnet.Handler. The packet arrives as the
// network's concrete frame type — no boxing, no type assertion.
func (nd *Node[S]) Receive(ctx *msgnet.Context[packet[S]], from int, p packet[S]) {
	if from != nd.pred() && from != nd.succ() {
		panic(fmt.Sprintf("synchro: node %d received from non-neighbor %d", nd.id, from))
	}
	if p.Round >= nd.latestRound[from] {
		nd.latestRound[from] = p.Round
		nd.latest[from] = p.State
	}
	nd.note(from, p.Round, p.State)
	if p.Round > 0 {
		nd.note(from, p.Round-1, p.Prev)
	}
	nd.advance(ctx)
}

// Timer implements msgnet.Handler: retransmit the current round packet so
// that rounds complete under loss and link back-pressure.
func (nd *Node[S]) Timer(ctx *msgnet.Context[packet[S]], kind int) {
	if kind != timerResend {
		return
	}
	nd.broadcast(ctx)
	ctx.After(nd.refresh, timerResend)
}

// note records neighbor `from`'s state for a round, ignoring rounds the
// node has already passed.
func (nd *Node[S]) note(from, round int, s S) {
	if round < nd.round {
		return
	}
	m := nd.roundState[from]
	if m == nil {
		m = map[int]S{}
		nd.roundState[from] = m
	}
	m[round] = s
}

// advance completes as many rounds as the collected neighbor states allow.
func (nd *Node[S]) advance(ctx *msgnet.Context[packet[S]]) {
	for {
		ps, okP := nd.roundState[nd.pred()][nd.round]
		ss, okS := nd.roundState[nd.succ()][nd.round]
		if !okP || !okS {
			return
		}
		v := statemodel.View[S]{I: nd.id, N: nd.n, Self: nd.state, Pred: ps, Succ: ss}
		nd.prev = nd.state
		if rule := nd.alg.EnabledRule(v); rule != 0 {
			nd.state = nd.alg.Apply(v, rule)
			nd.RuleExecutions++
		}
		delete(nd.roundState[nd.pred()], nd.round)
		delete(nd.roundState[nd.succ()], nd.round)
		nd.round++
		nd.Rounds++
		nd.broadcast(ctx)
	}
}

func (nd *Node[S]) broadcast(ctx *msgnet.Context[packet[S]]) {
	p := packet[S]{Round: nd.round, State: nd.state, Prev: nd.prev}
	ctx.Send(nd.pred(), p)
	ctx.Send(nd.succ(), p)
}

// Ring wires synchronized nodes over an msgnet simulation.
type Ring[S comparable] struct {
	// Net is the underlying event simulation; its frame type is the
	// round packet.
	Net *msgnet.Network[packet[S]]
	// Nodes holds the synchronized nodes by process id.
	Nodes []*Node[S]
}

// NewRing builds an α-synchronized ring: every node starts at round 0 with
// init states and coherent latest-known caches.
func NewRing[S comparable](alg statemodel.Algorithm[S], init statemodel.Config[S], link msgnet.LinkParams, refresh msgnet.Time, seed int64) *Ring[S] {
	n := alg.N()
	if len(init) != n {
		panic(fmt.Sprintf("synchro: init length %d != n %d", len(init), n))
	}
	nodes := make([]*Node[S], n)
	handlers := make([]msgnet.Handler[packet[S]], n)
	for i := 0; i < n; i++ {
		nodes[i] = NewNode[S](alg, i, init[i], refresh)
		handlers[i] = nodes[i]
	}
	for i, nd := range nodes {
		nd.SeedLatest(init[(i-1+n)%n], init[(i+1)%n])
	}
	net := msgnet.New(handlers, seed)
	net.RingLinks(link)
	return &Ring[S]{Net: net, Nodes: nodes}
}

// Census counts nodes whose latest-known view satisfies holder.
func (r *Ring[S]) Census(holder func(statemodel.View[S]) bool) int {
	count := 0
	for _, nd := range r.Nodes {
		if holder(nd.View()) {
			count++
		}
	}
	return count
}

// MinRound returns the lowest round any node has reached.
func (r *Ring[S]) MinRound() int {
	min := r.Nodes[0].Round()
	for _, nd := range r.Nodes[1:] {
		if nd.Round() < min {
			min = nd.Round()
		}
	}
	return min
}

// MaxRoundSkew returns the largest round difference between any two nodes;
// the α-synchronizer guarantees it stays ≤ a small constant.
func (r *Ring[S]) MaxRoundSkew() int {
	min, max := r.Nodes[0].Round(), r.Nodes[0].Round()
	for _, nd := range r.Nodes[1:] {
		if nd.Round() < min {
			min = nd.Round()
		}
		if nd.Round() > max {
			max = nd.Round()
		}
	}
	return max - min
}

// RuleExecutions sums applied rules across nodes.
func (r *Ring[S]) RuleExecutions() int {
	total := 0
	for _, nd := range r.Nodes {
		total += nd.RuleExecutions
	}
	return total
}
