// Fixture for the rulecheck analyzer: //rulecheck:step functions that
// keep and that break the composite-atomicity shape of Algorithm 4.
package rulecheck

// State is one process's local state.
type State struct{ X int }

// View mirrors statemodel.View's canonical field order.
type View struct {
	I    int
	N    int
	Self State
	Pred State
	Succ State
}

// Alg is a one-rule algorithm: the guard and command bodies are
// irrelevant to the step shape.
type Alg struct{}

func (a *Alg) EnabledRule(v View) int {
	if v.Self.X != v.Pred.X {
		return 1
	}
	return 0
}

func (a *Alg) Apply(v View, rule int) State { return State{X: v.Pred.X} }

type node struct {
	state State
	alg   *Alg
}

// goodStep follows the composite-atomicity shape of Algorithm 4.
//
//rulecheck:step
func (nd *node) goodStep(v View) {
	rule := nd.alg.EnabledRule(v)
	if rule == 0 {
		return
	}
	nd.state = nd.alg.Apply(v, rule)
}

// badStep applies the rule to a different view than the one the rule was
// evaluated on.
//
//rulecheck:step
func (nd *node) badStep(v, w View) {
	rule := nd.alg.EnabledRule(v)
	if rule != 0 {
		nd.state = nd.alg.Apply(w, rule) // want `Apply must be called with the same`
	}
}

// doubleStep evaluates the rules twice, so the rule it applies need not be
// the one the first evaluation saw.
//
//rulecheck:step
func (nd *node) doubleStep(v View) { // want `has 2 EnabledRule calls, want exactly 1`
	if nd.alg.EnabledRule(v) == 0 {
		return
	}
	rule := nd.alg.EnabledRule(v)
	nd.state = nd.alg.Apply(v, rule)
}
