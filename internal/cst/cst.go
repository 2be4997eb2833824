// Package cst implements the cached sensornet transform (CST) of Herman
// (2003), reproduced as Algorithm 4 of the paper: the standard scheme that
// executes a state-reading-model algorithm in a message-passing network.
//
// Each node keeps a cache Z_i[v_k] of every neighbor's local state. On
// receipt of a ⟨state, q⟩ message it refreshes the cache entry, executes
// at most one enabled rule against the cached neighborhood, and announces
// its own (possibly updated) state to both neighbors; an interval timer
// also re-announces the state periodically so that lost messages and
// corrupted caches heal — the ingredient that preserves self-stabilization
// in a lossy network.
//
// Token predicates are evaluated against the node's own state and its
// *caches* — exactly the reading the model-gap discussion of Section 5 is
// about: between a state update and the delivery of its announcement the
// caches are incoherent, and a naive algorithm (plain Dijkstra SSToken)
// passes through instants with zero token holders (Figure 11). SSRmin's
// token conditions are designed so that some node always holds a token
// through those transient periods (Theorem 3).
//
// A Ring built with spares can churn: Join, Leave and Splice rewire the
// ring's membership model (internal/topo), which checks the rules and
// which every node reads its neighbors from, and then rewire the msgnet
// links to match. A joiner starts from self-seeded caches and announces
// at once; frames already in flight on a removed link still arrive and
// are discarded as stale. Those rules are the ones scenario.Replay and
// the live engine apply, so a churn script means the same ring on every
// tier; a rule violation panics here, since a validated script cannot
// produce one.
package cst

import (
	"fmt"
	"math/rand"

	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
	"ssrmin/internal/topo"
)

// Node is the CST wrapper of one process: an msgnet.Handler executing the
// wrapped algorithm against cached neighbor states.
type Node[S comparable] struct {
	alg statemodel.Algorithm[S]
	id  int
	n   int
	// ring is the membership its Ring rewires under churn: the node's
	// neighbors are ring.Pred[id] and ring.Succ[id].
	ring  *topo.Ring
	state S
	// cachePred and cacheSucc are the cache Z_i: one slot per ring
	// neighbor, held as plain fields (a ring node has exactly two
	// neighbors) so the hot receive/execute path touches no map.
	cachePred S
	cacheSucc S
	refresh   msgnet.Time

	// Hold is the critical-section dwell time: how long the node sits on
	// an enabled rule before executing it, modelling the application work
	// a privileged node performs (e.g. the camera actively monitoring).
	// Zero means execute synchronously on receipt, the literal Algorithm 4.
	Hold        msgnet.Time
	holdPending bool

	// RuleExecutions counts rules executed by this node.
	RuleExecutions int
	// StaleFrames counts discarded deliveries: frames that arrived from a
	// node that is not (any longer) a ring neighbor, or while detached —
	// the residue of churn rewiring, already on the medium when the
	// topology changed. They count as delivered (Stats.Delivered,
	// MsgRecv); the engine counts its own in EngineStats.Dropped only.
	StaleFrames int
	// OnExecute, when non-nil, is invoked after the node executes a rule.
	OnExecute func(now msgnet.Time, rule int)
}

const (
	timerRefresh = 1
	timerExecute = 2
)

// newNode creates the CST node for process id of alg on ring. NewRing
// seeds its caches before the simulation starts.
func newNode[S comparable](alg statemodel.Algorithm[S], id int, init S, refresh msgnet.Time, ring *topo.Ring) *Node[S] {
	if refresh <= 0 {
		panic("cst: refresh interval must be positive")
	}
	return &Node[S]{
		alg:     alg,
		id:      id,
		n:       alg.N(),
		ring:    ring,
		state:   init,
		refresh: refresh,
	}
}

// pred and succ return the ring neighbor ids (-1 when detached). Churn
// rewires them without touching the cache slots: the node has not yet
// heard from a new neighbor, so its view of that side is arbitrary until
// the next announcement arrives — the Theorem 4 incoherence that the
// refresh timer heals, and the reason churn opens a settle window in the
// monitors.
func (nd *Node[S]) pred() int { return int(nd.ring.Pred[nd.id]) }
func (nd *Node[S]) succ() int { return int(nd.ring.Succ[nd.id]) }

// Detached reports whether the node is outside the ring (it left, or is a
// spare that has not joined yet). A detached node ignores deliveries and
// timers and announces to nobody; Start on a detached node is a no-op, so
// dormant spares consume no events and draw nothing from the RNG until
// they join.
func (nd *Node[S]) Detached() bool { return nd.ring.Pred[nd.id] < 0 }

// Neighbors returns the node's current ring neighbor ids (-1, -1 when
// detached) — what fault injection must target instead of the founding
// (i±1) mod n once churn has rewired the ring.
func (nd *Node[S]) Neighbors() (pred, succ int) { return nd.pred(), nd.succ() }

// State returns the node's current local state q_i.
func (nd *Node[S]) State() S { return nd.state }

// SetState overwrites the local state (fault injection).
func (nd *Node[S]) SetState(s S) { nd.state = s }

// Cache returns the cached state of neighbor k (the zero state when k is
// not a ring neighbor, mirroring an absent map entry).
func (nd *Node[S]) Cache(k int) S {
	switch k {
	case nd.pred():
		return nd.cachePred
	case nd.succ():
		return nd.cacheSucc
	}
	var zero S
	return zero
}

// SetCache overwrites a cache entry (initialization or fault injection).
// k must be a ring neighbor of the node.
func (nd *Node[S]) SetCache(k int, s S) {
	// On two-node rings pred == succ; keep both slots in step, as the
	// single map entry did.
	ok := false
	if k == nd.pred() {
		nd.cachePred = s
		ok = true
	}
	if k == nd.succ() {
		nd.cacheSucc = s
		ok = true
	}
	if !ok {
		panic(fmt.Sprintf("cst: node %d has no neighbor %d", nd.id, k))
	}
}

// View builds the node's current view of the ring: its own state plus the
// cached neighbor states. All guard evaluation and all token predicates of
// the message-passing model go through this view.
//
//allocgate:hot
func (nd *Node[S]) View() statemodel.View[S] {
	return statemodel.View[S]{
		I:    nd.id,
		N:    nd.n,
		Self: nd.state,
		Pred: nd.cachePred,
		Succ: nd.cacheSucc,
	}
}

// Start implements msgnet.Handler: announce the initial state and arm the
// refresh timer with a random phase so nodes do not beat in lockstep.
// Detached spares do nothing (and draw nothing): they wake only when a
// join wires them in.
func (nd *Node[S]) Start(ctx *msgnet.Context[S]) {
	if nd.Detached() {
		return
	}
	nd.announce(ctx)
	phase := msgnet.Time(ctx.Rand().Float64()) * nd.refresh
	ctx.After(phase, timerRefresh)
}

// Receive implements msgnet.Handler: Algorithm 4's message action. The
// payload arrives as a concrete S — the network's frame type — so no
// type assertion or unboxing happens per message.
//
// A frame from a node that is not (any longer) a ring neighbor is
// discarded: after a splice, frames that were already on a removed link
// still arrive, and the receiver must treat them as stale rather than
// poison a cache slot that now describes a different neighbor.
//
//allocgate:hot
func (nd *Node[S]) Receive(ctx *msgnet.Context[S], from int, s S) {
	if nd.Detached() || !nd.setCacheFast(from, s) {
		nd.StaleFrames++
		return
	}
	nd.executeOne(ctx)
	nd.announce(ctx)
}

// Timer implements msgnet.Handler: periodic re-announcement and deferred
// rule execution after the critical-section dwell. A detached node lets
// its timers lapse (the refresh chain is re-armed by the next join).
//
//allocgate:hot
func (nd *Node[S]) Timer(ctx *msgnet.Context[S], kind int) {
	if nd.Detached() {
		return
	}
	switch kind {
	case timerRefresh:
		nd.announce(ctx)
		ctx.After(nd.refresh, timerRefresh)
	case timerExecute:
		nd.holdPending = false
		nd.executeNow(ctx)
		nd.announce(ctx)
	}
}

// executeOne runs at most one enabled rule against the cached view, either
// immediately (Hold == 0) or after the dwell time.
//
//allocgate:hot
func (nd *Node[S]) executeOne(ctx *msgnet.Context[S]) {
	if nd.Hold <= 0 {
		nd.executeNow(ctx)
		return
	}
	if nd.holdPending {
		return
	}
	if nd.alg.EnabledRule(nd.View()) != 0 {
		nd.holdPending = true
		ctx.After(nd.Hold, timerExecute)
	}
}

// executeNow evaluates and applies the enabled rule, if any, against the
// current cached view.
//
//rulecheck:step
//allocgate:hot
func (nd *Node[S]) executeNow(ctx *msgnet.Context[S]) {
	v := nd.View()
	rule := nd.alg.EnabledRule(v)
	if rule == 0 {
		return
	}
	nd.state = nd.alg.Apply(v, rule)
	nd.RuleExecutions++
	if nd.OnExecute != nil {
		nd.OnExecute(ctx.Now(), rule)
	}
}

// announce sends the current state to both neighbors (busy links swallow
// the send, per the one-message-per-direction link model).
//
//allocgate:hot
func (nd *Node[S]) announce(ctx *msgnet.Context[S]) {
	ctx.Send(nd.pred(), nd.state)
	ctx.Send(nd.succ(), nd.state)
}

// Ring wires n CST nodes into a bidirectional ring over an msgnet
// simulation. Rings built with Options.Spare > 0 can be rewired mid-run
// with Join, Leave and Splice.
type Ring[S comparable] struct {
	// Net is the underlying event simulation; run it to advance time.
	Net *msgnet.Network[S]
	// Nodes holds the CST nodes, indexed by process id. With spares this
	// includes dormant not-yet-joined nodes; see Active.
	Nodes []*Node[S]

	// link is the parameter set applied to links created by churn ops.
	link msgnet.LinkParams
	// topo is the ring membership every node reads its neighbors from.
	topo topo.Ring
}

// Options configures NewRing.
type Options[S comparable] struct {
	// Link is the parameter set of every directed ring link.
	Link msgnet.LinkParams
	// Refresh is the period of the cache-refresh timer.
	Refresh msgnet.Time
	// Seed drives all simulation randomness.
	Seed int64
	// Hold is the critical-section dwell time applied to every node (see
	// Node.Hold).
	Hold msgnet.Time
	// CoherentCaches, when true, seeds every cache with the neighbor's
	// true initial state (the "legitimate configuration with
	// cache-coherence" hypothesis of Theorem 3). When false, caches are
	// seeded with random states drawn via RandomState (arbitrary bad
	// incoherence, the Theorem 4 setting); if RandomState is nil the
	// node's own state is used instead.
	CoherentCaches bool
	// RandomState draws an arbitrary state for incoherent cache seeding.
	RandomState func(rng *rand.Rand) S
	// Arena, when non-nil, is installed on the network via UseArena so a
	// sweep's simulations reuse one event arena (reset, not reallocated,
	// between trials). The caller must not share a live arena between
	// concurrently running rings.
	Arena *msgnet.Arena[S]
	// Spare is the number of dormant extra nodes (ids n..n+Spare-1)
	// preallocated for mid-run joins. msgnet cannot grow its handler set
	// after the simulation starts, so every node a churn schedule may ever
	// join must exist — detached and silent — from the beginning.
	Spare int
}

// NewRing builds the network, one node per entry of init, plus
// opts.Spare dormant spares awaiting Join.
func NewRing[S comparable](alg statemodel.Algorithm[S], init statemodel.Config[S], opts Options[S]) *Ring[S] {
	n := alg.N()
	if len(init) != n {
		panic(fmt.Sprintf("cst: init length %d != n %d", len(init), n))
	}
	if opts.Spare < 0 {
		panic("cst: negative spare count")
	}
	r := &Ring[S]{link: opts.Link, topo: topo.New(n, opts.Spare)}
	total := n + opts.Spare
	r.Nodes = make([]*Node[S], total)
	handlers := make([]msgnet.Handler[S], total)
	var zero S
	for i := 0; i < total; i++ {
		st := zero
		if i < n {
			st = init[i]
		}
		r.Nodes[i] = newNode[S](alg, i, st, opts.Refresh, &r.topo)
		r.Nodes[i].Hold = opts.Hold
		handlers[i] = r.Nodes[i]
	}
	r.Net = msgnet.New(handlers, opts.Seed)
	if opts.Arena != nil {
		r.Net.UseArena(opts.Arena)
	}
	// Ring links between the n founding members only; spares are
	// link-less until they join. (RingLinks would wire the spares in, so
	// the loop is inlined here — same edges, same insertion order.)
	for i := 0; i < n; i++ {
		j := int(r.topo.Succ[i])
		r.Net.AddLink(i, j, opts.Link)
		r.Net.AddLink(j, i, opts.Link)
	}
	seedRNG := rand.New(rand.NewSource(opts.Seed + 1))
	for i := 0; i < n; i++ {
		nd := r.Nodes[i]
		p, s := nd.pred(), nd.succ()
		if opts.CoherentCaches {
			nd.SetCache(p, init[p])
			nd.SetCache(s, init[s])
		} else {
			nd.SetCache(p, drawState(seedRNG, opts, init[i]))
			nd.SetCache(s, drawState(seedRNG, opts, init[i]))
		}
	}
	return r
}

// Active reports whether node i is currently a ring member.
func (r *Ring[S]) Active(i int) bool { return !r.Nodes[i].Detached() }

// Members returns the active node ids in ring order, starting at node 0
// (the Dijkstra bottom, which never leaves) and following successors.
func (r *Ring[S]) Members() []int { return r.topo.Members() }

// Join wakes the next dormant spare, splices it into the ring between
// `after` and after's current successor, and returns its id. The joiner
// starts from `state` with self-seeded (incoherent) caches, announces to
// both new neighbors immediately, and arms its refresh chain with a
// random phase — the message-passing analogue of a node powering on
// inside an already running ring.
func (r *Ring[S]) Join(after int, state S) int {
	j, b, err := r.topo.Join(after)
	if err != nil {
		panic(fmt.Sprintf("cst: join after %d: %v", after, err))
	}
	a := after
	net := r.Net
	// The a—b edge is replaced by a—j—b. Frames already in transit on the
	// removed links still arrive and are discarded as stale.
	net.RemoveLink(a, b)
	net.RemoveLink(b, a)
	net.AddLink(a, j, r.link)
	net.AddLink(j, a, r.link)
	net.AddLink(j, b, r.link)
	net.AddLink(b, j, r.link)
	jn := r.Nodes[j]
	jn.state = state
	// The joiner has not heard from either neighbor: seed its caches with
	// its own state (arbitrary incoherence, healed by the announcements).
	jn.cachePred = state
	jn.cacheSucc = state
	net.SendFrom(j, a, state)
	net.SendFrom(j, b, state)
	phase := msgnet.Time(net.Rand().Float64()) * jn.refresh
	net.StartTimer(j, phase, timerRefresh)
	return j
}

// Leave removes node v from the ring and reconnects its neighbors with
// fresh (idle) links. Node 0 — the Dijkstra bottom the stabilization
// argument hangs on — can never leave.
func (r *Ring[S]) Leave(v int) {
	a, b, gone, err := r.topo.Remove(v, 1)
	if err != nil {
		panic(fmt.Sprintf("cst: leave of %d: %v", v, err))
	}
	r.detach(a, b, gone)
}

// Splice removes the arc of count consecutive members following `after`
// and reconnects the ring with one fresh edge — a multi-node partition
// healing in a single topology change, the scenario the graceful-handover
// property is really about. The arc may not contain node 0 or wrap the
// whole ring.
func (r *Ring[S]) Splice(after, count int) {
	a, b, gone, err := r.topo.Splice(after, count)
	if err != nil {
		panic(fmt.Sprintf("cst: splice of %d after %d: %v", count, after, err))
	}
	r.detach(a, b, gone)
}

// detach tears down the links along a, gone..., b — the arc the ring
// model just removed — drops the leavers' pending holds and joins a—b
// with fresh links.
func (r *Ring[S]) detach(a, b int, gone []int) {
	prev := a
	for _, x := range append(gone, b) {
		r.Net.RemoveLink(prev, x)
		r.Net.RemoveLink(x, prev)
		prev = x
	}
	for _, x := range gone {
		r.Nodes[x].holdPending = false
	}
	r.Net.AddLink(a, b, r.link)
	r.Net.AddLink(b, a, r.link)
}

func drawState[S comparable](rng *rand.Rand, opts Options[S], fallback S) S {
	if opts.RandomState != nil {
		return opts.RandomState(rng)
	}
	return fallback
}

// Census counts the nodes for which holder is true on their cached view —
// the number of token holders as the nodes themselves perceive it, which
// is the quantity Theorem 3 bounds.
func (r *Ring[S]) Census(holder func(statemodel.View[S]) bool) int {
	count := 0
	for _, nd := range r.Nodes {
		if !nd.Detached() && holder(nd.View()) {
			count++
		}
	}
	return count
}

// Holders returns the ids of ring members whose cached view satisfies
// holder. Detached nodes hold nothing: a node outside the ring cannot be
// in the critical section.
func (r *Ring[S]) Holders(holder func(statemodel.View[S]) bool) []int {
	var out []int
	for i, nd := range r.Nodes {
		if !nd.Detached() && holder(nd.View()) {
			out = append(out, i)
		}
	}
	return out
}

// States returns the vector of true local states (a configuration in the
// state-reading sense, ignoring caches).
func (r *Ring[S]) States() statemodel.Config[S] {
	cfg := make(statemodel.Config[S], len(r.Nodes))
	for i, nd := range r.Nodes {
		cfg[i] = nd.State()
	}
	return cfg
}

// Coherent reports whether every ring member's cache equals its true
// neighbor's state (Definition 2). Neighbors come from the live
// successor/predecessor pointers, so the check follows churn rewiring.
func (r *Ring[S]) Coherent() bool {
	for _, nd := range r.Nodes {
		if nd.Detached() {
			continue
		}
		p, s := nd.pred(), nd.succ()
		if nd.Cache(p) != r.Nodes[p].State() || nd.Cache(s) != r.Nodes[s].State() {
			return false
		}
	}
	return true
}

// RuleExecutions sums rule executions across all nodes.
func (r *Ring[S]) RuleExecutions() int {
	total := 0
	for _, nd := range r.Nodes {
		total += nd.RuleExecutions
	}
	return total
}

// setCacheFast refreshes the cache slot(s) for from on the message hot
// path (two comparisons, no map) and reports whether from is a ring
// neighbor — the receive path's validity check, folded in so each
// message pays for the comparisons once.
//
//allocgate:hot
func (nd *Node[S]) setCacheFast(from int, s S) bool {
	ok := false
	if from == nd.pred() {
		nd.cachePred = s
		ok = true
	}
	if from == nd.succ() {
		nd.cacheSucc = s
		ok = true
	}
	return ok
}
