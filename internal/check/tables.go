// Compiled transition tables: guards and commands of a
// statemodel.PositionUniform algorithm depend only on the (pred, self,
// succ) view and the position class (bottom vs. other), so they can be
// evaluated once per encoded state triple and stored in two dense tables
// of |Q|³ entries. The engine built on top (engine.go) then expands
// successors by pure digit arithmetic on uint64 configuration IDs — no
// Decode/Encode, no View construction, no per-node allocation.
//
// An algorithm that also declares statemodel.DigitShift is explored one
// configuration per orbit of its digit shift (shift.go); Compile checks
// the declaration against the tables.
package check

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ssrmin/internal/statemodel"
)

// Engine is the table-compiled model checker of one Checker's instance.
// All its scans operate on dense uint64 configuration IDs (the encoding
// of Checker.Encode) and shard the ID space across a worker pool. Build
// one with Checker.Compile.
type Engine[S comparable] struct {
	c       *Checker[S]
	q       int      // |Q|, number of local states
	n       int      // ring size
	total   uint64   // |Γ| = q^n
	pow     []uint64 // pow[i] = q^i, the place value of position i
	workers int

	// sym is the declared digit shift (orbit 1 without one). Every scan,
	// bitmap and memo covers only the representatives [0, sym.span).
	sym shift

	// rule[class][triple] is the enabled rule (0 = none) for a process of
	// the given position class (0 = bottom, 1 = other) observing the
	// encoded (pred, self, succ) triple; next[class][triple] is the state
	// index after applying that rule. Triples use statemodel.TripleIndex.
	rule [statemodel.ViewClasses][]uint8
	next [statemodel.ViewClasses][]int32

	// allRules has bit r set for every rule number r of the algorithm.
	allRules uint32
}

// maxSubsetMoves bounds the distributed-daemon subset enumeration: e
// enabled moves have 2^e − 1 nonempty subsets.
const maxSubsetMoves = 25

// Compile builds the table-compiled engine for this checker's instance.
// It fails unless the algorithm declares statemodel.PositionUniform, and
// when the algorithm declares statemodel.DigitShift it fails unless that
// shift commutes with both compiled tables. The worker count applies to
// all parallel scans; ≤ 0 selects GOMAXPROCS.
func (c *Checker[S]) Compile(workers int) (*Engine[S], error) {
	if _, ok := any(c.alg).(statemodel.PositionUniform); !ok {
		return nil, fmt.Errorf("check: %s does not declare statemodel.PositionUniform; cannot compile transition tables", c.alg.Name())
	}
	if r := c.alg.Rules(); r > 30 {
		return nil, fmt.Errorf("check: %d rules exceed the 30-rule mask of the compiled engine", r)
	}
	total := c.NumConfigs()
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("check: |Γ| = %d exceeds the 2³² ID-space of the compiled engine", total)
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	e := &Engine[S]{c: c, q: len(c.states), n: c.n, total: total, workers: workers}
	e.pow = make([]uint64, e.n+1)
	e.pow[0] = 1
	for i := 1; i <= e.n; i++ {
		e.pow[i] = e.pow[i-1] * uint64(e.q)
	}
	for r := 1; r <= c.alg.Rules(); r++ {
		e.allRules |= 1 << uint(r)
	}
	for class := 0; class < statemodel.ViewClasses; class++ {
		rt := make([]uint8, e.q*e.q*e.q)
		nt := make([]int32, e.q*e.q*e.q)
		for p := 0; p < e.q; p++ {
			for s := 0; s < e.q; s++ {
				for u := 0; u < e.q; u++ {
					t := statemodel.TripleIndex(e.q, p, s, u)
					v := statemodel.ClassView(class, e.n, c.states[p], c.states[s], c.states[u])
					r := c.alg.EnabledRule(v)
					rt[t] = uint8(r)
					nt[t] = int32(s) // no move: state unchanged
					if r != 0 {
						ns, ok := c.index[c.alg.Apply(v, r)]
						if !ok {
							return nil, fmt.Errorf("check: Apply(%v, %d) left the state space", v, r)
						}
						nt[t] = int32(ns)
					}
				}
			}
		}
		e.rule[class] = rt
		e.next[class] = nt
	}
	orbit := 1
	if d, ok := any(c.alg).(statemodel.DigitShift); ok {
		orbit = d.ShiftOrbit()
	}
	if err := e.verifyShift(orbit); err != nil {
		return nil, fmt.Errorf("check: %s: %w", c.alg.Name(), err)
	}
	e.sym = newShift(e.q, e.n, orbit, e.pow)
	return e, nil
}

// verifyShift checks that adding b = q/orbit to every state index of a
// triple (mod q) commutes with both tables: the shifted triple enables
// the same rule and moves to the shifted state. One shift generates the
// whole orbit, so this makes the transition relation invariant.
func (e *Engine[S]) verifyShift(orbit int) error {
	if orbit < 1 || e.q%orbit != 0 {
		return fmt.Errorf("declared digit-shift orbit %d does not divide |Q| = %d", orbit, e.q)
	}
	q, b := e.q, e.q/orbit
	for class := 0; class < statemodel.ViewClasses; class++ {
		for p := 0; p < q; p++ {
			for s := 0; s < q; s++ {
				for u := 0; u < q; u++ {
					t := statemodel.TripleIndex(q, p, s, u)
					st := statemodel.TripleIndex(q, (p+b)%q, (s+b)%q, (u+b)%q)
					if e.rule[class][st] != e.rule[class][t] || int(e.next[class][st]) != (int(e.next[class][t])+b)%q {
						v := statemodel.ClassView(class, e.n, e.c.states[p], e.c.states[s], e.c.states[u])
						return fmt.Errorf("declared digit shift (orbit %d) does not commute with the rules at %+v", orbit, v)
					}
				}
			}
		}
	}
	return nil
}

// NumConfigs returns |Γ|.
func (e *Engine[S]) NumConfigs() uint64 { return e.total }

// Orbit returns the size of every digit-shift orbit the engine explores
// modulo: the algorithm's statemodel.DigitShift K, or 1 without one.
func (e *Engine[S]) Orbit() int { return e.sym.k }

// Representatives returns the number of configurations the engine
// actually visits, one per orbit: |Γ| / Orbit().
func (e *Engine[S]) Representatives() uint64 { return e.sym.span }

// Workers returns the configured worker-pool size.
func (e *Engine[S]) Workers() int { return e.workers }

// digitsOf decomposes id into its base-q digits (the per-position state
// indices), writing into buf (which must have length n).
func (e *Engine[S]) digitsOf(id uint64, buf []int) {
	q := uint64(e.q)
	for i := 0; i < e.n; i++ {
		buf[i] = int(id % q)
		id /= q
	}
}

// Triples writes the encoded (pred, self, succ) triple of every position
// of configuration id into buf, growing it as needed. Position 0 is the
// bottom class; callers evaluating compiled per-view tables (e.g.
// inclusion.CensusTable) index class 0 for position 0 and class 1
// elsewhere.
func (e *Engine[S]) Triples(id uint64, buf []uint32) []uint32 {
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	buf = buf[:0]
	for i := 0; i < e.n; i++ {
		pd := digits[(i+e.n-1)%e.n]
		ud := digits[(i+1)%e.n]
		buf = append(buf, uint32(statemodel.TripleIndex(e.q, pd, digits[i], ud)))
	}
	return buf
}

// mover is one enabled move in ID space: executing it adds delta to the
// configuration ID (the state-index change times the position's place
// value — composite atomicity makes simultaneous moves sum).
type mover struct {
	delta int64
	rule  uint8
}

// enabledMoves appends the moves of the configuration with the given
// digits that are permitted by ruleMask, in increasing position order.
// The (pred, self, succ) triple rolls along the ring one digit at a time.
// Rule numbers start at 1, so with bit 0 of the mask cleared one probe
// rejects both a disabled process (rule 0) and a rule outside the mask.
//
//allocgate:hot
func (e *Engine[S]) enabledMoves(digits []int, ruleMask uint32, buf []mover) []mover {
	q, n := e.q, e.n
	ruleMask &^= 1
	rule, next := e.rule[0], e.next[0] // the bottom class, then every other
	pd, sd := digits[n-1], digits[0]
	for i := 0; i < n; i++ {
		ud := digits[0]
		if i+1 < n {
			ud = digits[i+1]
		}
		t := (pd*q+sd)*q + ud
		if r := rule[t]; ruleMask&(1<<r) != 0 {
			buf = append(buf, mover{
				delta: (int64(next[t]) - int64(sd)) * int64(e.pow[i]),
				rule:  r,
			})
		}
		pd, sd = sd, ud
		rule, next = e.rule[1], e.next[1]
	}
	return buf
}

// distinctSuccessors appends the distinct successor IDs of id over every
// nonempty subset of movers (the distributed daemon's choices) using the
// caller's subset-sum scratch (grown to 2^e as needed). Every delta moves
// exactly one base-q digit without carries, so distinct subsets yield
// distinct IDs whenever no delta is zero — the common case, needing no
// dedup; a zero delta (a rule mapping a state to itself) falls back to a
// linear dedup. Either way each successor appears once, at its first
// subset in mask order. The DFS expands with its own single pass
// (dfsWorker.push); this is the successor relation of WorstPath and
// ExportDOT.
//
//allocgate:hot
func distinctSuccessors(id uint64, movers []mover, buf []uint64, sums []int64) ([]uint64, []int64) {
	e := len(movers)
	if e == 0 {
		return buf, sums
	}
	if e > maxSubsetMoves {
		panic("check: too many enabled processes for subset enumeration")
	}
	if len(sums) < 1<<uint(e) {
		//lint:ignore allocgate the subset-sum scratch grows to 2^e once per caller buffer and is reused
		sums = make([]int64, 1<<uint(e))
	}
	anyZero := false
	for _, m := range movers {
		if m.delta == 0 {
			anyZero = true
			break
		}
	}
	base := len(buf)
	for mask := 1; mask < 1<<uint(e); mask++ {
		lb := mask & -mask
		d := sums[mask^lb] + movers[bits.TrailingZeros32(uint32(mask))].delta
		sums[mask] = d
		nid := uint64(int64(id) + d)
		if anyZero {
			dup := false
			for _, x := range buf[base:] {
				if x == nid {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		buf = append(buf, nid)
	}
	return buf, sums
}

// successors returns the distinct successor IDs of id under every rule, in
// daemon-subset mask order, reusing buf.
func (e *Engine[S]) successors(id uint64, buf []uint64) []uint64 {
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	buf, _ = distinctSuccessors(id, e.enabledMoves(digits, e.allRules, nil), buf[:0], nil)
	return buf
}

// IDSet is a set of configurations of Γ — the engine's representation of
// Λ and of other per-configuration flags. An engine-built set is shift
// invariant and stores one bit per digit-shift representative; a
// configuration is a member iff its orbit's representative is.
type IDSet struct {
	words []uint64
	count uint64 // member bits
	sym   *shift // the engine's symmetry; nil: the bits index Γ directly
}

func newIDSet(total uint64) *IDSet {
	return &IDSet{words: make([]uint64, (total+63)/64)}
}

// Contains reports membership of the configuration id ∈ Γ.
func (s *IDSet) Contains(id uint64) bool {
	if s.sym != nil {
		id = s.sym.canon(id)
	}
	return s.has(id)
}

// has probes the bit of id, which must be a representative.
func (s *IDSet) has(id uint64) bool {
	return s.words[id>>6]>>(id&63)&1 == 1
}

// set marks id; safe only while a single goroutine owns id's word (the
// engine's range shards are 64-aligned, so chunk owners never share one).
func (s *IDSet) set(id uint64) {
	s.words[id>>6] |= 1 << (id & 63)
}

// clear unmarks id, under the same ownership rule as set.
func (s *IDSet) clear(id uint64) {
	s.words[id>>6] &^= 1 << (id & 63)
}

// Count returns the number of member configurations of Γ.
func (s *IDSet) Count() uint64 {
	if s.sym == nil {
		return s.count
	}
	return s.count * uint64(s.sym.k)
}

// ForEach visits every member configuration in increasing ID order until
// visit returns false. Shifting c times lifts a representative's top digit
// from [0, b) into [c·b, (c+1)·b), so the c-th images of the members form
// the c-th of K consecutive ID blocks; each block is sorted on its own.
func (s *IDSet) ForEach(visit func(id uint64) bool) {
	if !s.forEachBit(visit) || s.sym == nil {
		return
	}
	var block []uint64
	for c := 1; c < s.sym.k; c++ {
		block = block[:0]
		s.forEachBit(func(r uint64) bool {
			block = append(block, s.sym.rotate(r, c*s.sym.b))
			return true
		})
		slices.Sort(block)
		for _, id := range block {
			if !visit(id) {
				return
			}
		}
	}
}

// forEachBit visits the set bits in increasing order until visit returns
// false, and reports whether it visited them all.
func (s *IDSet) forEachBit(visit func(id uint64) bool) bool {
	for wi, w := range s.words {
		for w != 0 {
			id := uint64(wi)<<6 | uint64(bits.TrailingZeros64(w))
			if !visit(id) {
				return false
			}
			w &= w - 1
		}
	}
	return true
}
